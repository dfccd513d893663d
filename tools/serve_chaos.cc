// serve_chaos: hostile-client battery against a serve process.
//
// The server-side chaos plan (--chaos on tools/serve) injects faults the
// server can see coming; this tool plays the client the server cannot
// trust.  It cycles a battery of protocol and connection attacks against a
// live server and, between attacks, probes it with a clean request to
// verify the serving plane is still answering:
//
//   garbage        random bytes that never parse as a frame
//   truncate       half a request header, then a clean FIN
//   halfframe-rst  a header promising a payload, a few payload bytes, then
//                  SO_LINGER{1,0} close (RST with bytes in flight)
//   slowloris      a valid frame trickled one byte at a time
//   oversize       a header advertising a payload above the protocol cap
//
// Every attack must leave the server able to serve the next clean probe;
// any failed probe fails the run (exit 1).  With --self the tool starts an
// in-process loopback server first, so the battery runs hermetically — this
// is what check.sh --quick uses as a smoke test.
//
//   serve_chaos --port 7433 --duration-ms 2000
//   serve_chaos --self --duration-ms 2000
//
// Flags:
//   --host H=127.0.0.1 --port P=7433
//   --self                 start an in-process server (ignores --host/port)
//   --duration-ms X=2000   total battery time
//   --probe-timeout-ms X=1000   clean-probe reply deadline
//   --seed S=42            garbage/attack-order RNG
//   --attacks LIST=all     comma list of attack names above

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/serve/clock.h"
#include "src/serve/server.h"
#include "src/serve/wire.h"
#include "tools/flags.h"

namespace {

using namespace faas;

volatile std::sig_atomic_t g_stop = 0;

void OnSignal(int /*signum*/) { g_stop = 1; }

// Blocking connect with a deadline; returns -1 on failure.
int Dial(const sockaddr_in& addr, int timeout_ms) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv;
  tv.tv_sec = timeout_ms / 1'000;
  tv.tv_usec = (timeout_ms % 1'000) * 1'000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const uint8_t* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    const ssize_t n = send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

// Reads until the peer closes or the receive timeout fires; the attacks
// don't care what comes back, only that the server disposes of them.
void DrainUntilClose(int fd) {
  uint8_t buf[4096];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return;  // Closed, reset, or timed out.
  }
}

// One clean request on a fresh connection; true when a complete reply for
// the same id comes back in time.  This is the liveness oracle.
bool Probe(const sockaddr_in& addr, int timeout_ms, uint64_t request_id) {
  const int fd = Dial(addr, timeout_ms);
  if (fd < 0) {
    return false;
  }
  RequestFrame frame;
  frame.request_id = request_id;
  frame.function_id = 0;
  uint8_t header[kWireHeaderSize];
  EncodeRequestTo(frame, header);
  if (!SendAll(fd, header, sizeof(header))) {
    close(fd);
    return false;
  }
  uint8_t reply[kWireHeaderSize];
  size_t got = 0;
  while (got < sizeof(reply)) {
    const ssize_t n = recv(fd, reply + got, sizeof(reply) - got, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      close(fd);
      return false;
    }
    got += static_cast<size_t>(n);
  }
  close(fd);
  FrameDecoder decoder;
  decoder.Push(reply, sizeof(reply));
  DecodedFrame decoded;
  return decoder.Next(&decoded) == FrameDecoder::Result::kFrame &&
         decoded.type == FrameType::kReply &&
         decoded.reply.request_id == request_id;
}

struct Battery {
  sockaddr_in addr{};
  std::mt19937_64 rng;
  int timeout_ms = 1'000;

  // Random bytes; overwhelmingly likely to fail the magic check on the
  // first frame boundary.
  bool Garbage() {
    const int fd = Dial(addr, timeout_ms);
    if (fd < 0) {
      return false;
    }
    uint8_t junk[512];
    for (uint8_t& b : junk) {
      b = static_cast<uint8_t>(rng());
    }
    SendAll(fd, junk, sizeof(junk));
    DrainUntilClose(fd);
    close(fd);
    return true;
  }

  // Half a header then FIN: the decoder must discard the stash and the
  // server must release the connection without a reply.
  bool Truncate() {
    const int fd = Dial(addr, timeout_ms);
    if (fd < 0) {
      return false;
    }
    RequestFrame frame;
    frame.request_id = rng();
    uint8_t header[kWireHeaderSize];
    EncodeRequestTo(frame, header);
    SendAll(fd, header, kWireHeaderSize / 2);
    shutdown(fd, SHUT_WR);
    DrainUntilClose(fd);
    close(fd);
    return true;
  }

  // Header promising 1 KiB, 100 bytes delivered, then a hard RST: the
  // server sees ECONNRESET mid-frame with a stashed partial payload.
  bool HalfFrameRst() {
    const int fd = Dial(addr, timeout_ms);
    if (fd < 0) {
      return false;
    }
    RequestFrame frame;
    frame.request_id = rng();
    frame.payload_size = 1'024;
    uint8_t buf[kWireHeaderSize + 100];
    EncodeRequestTo(frame, buf);
    std::memset(buf + kWireHeaderSize, 0xAB, 100);
    SendAll(fd, buf, sizeof(buf));
    const linger hard_close{1, 0};
    setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard_close, sizeof(hard_close));
    close(fd);
    return true;
  }

  // A valid frame trickled byte by byte — a slow client must neither wedge
  // a loop nor starve other connections; the reply still arrives.
  bool Slowloris() {
    const int fd = Dial(addr, timeout_ms);
    if (fd < 0) {
      return false;
    }
    RequestFrame frame;
    frame.request_id = rng();
    frame.payload_size = 16;
    uint8_t buf[kWireHeaderSize + 16];
    EncodeRequestTo(frame, buf);
    std::memset(buf + kWireHeaderSize, 0x5A, 16);
    for (size_t i = 0; i < sizeof(buf); ++i) {
      if (!SendAll(fd, buf + i, 1)) {
        close(fd);
        return true;  // Server may legitimately time the trickle out.
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    uint8_t reply[kWireHeaderSize];
    size_t got = 0;
    while (got < sizeof(reply)) {
      const ssize_t n = recv(fd, reply + got, sizeof(reply) - got, 0);
      if (n <= 0) {
        break;
      }
      got += static_cast<size_t>(n);
    }
    close(fd);
    return true;
  }

  // payload_size above the protocol cap: a terminal protocol error the
  // server must answer with a close, never a buffer allocation.
  bool Oversize() {
    const int fd = Dial(addr, timeout_ms);
    if (fd < 0) {
      return false;
    }
    RequestFrame frame;
    frame.request_id = rng();
    uint8_t header[kWireHeaderSize];
    EncodeRequestTo(frame, header);
    const uint32_t huge = kMaxPayloadBytes + 1;
    std::memcpy(header + 12, &huge, sizeof(huge));  // payload_size field.
    SendAll(fd, header, sizeof(header));
    DrainUntilClose(fd);
    close(fd);
    return true;
  }
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv) || flags.Has("help")) {
    std::fprintf(
        stderr,
        "usage: serve_chaos [--host H=127.0.0.1] [--port P=7433] [--self]\n"
        "                   [--duration-ms X=2000] [--probe-timeout-ms "
        "X=1000]\n"
        "                   [--seed S=42] "
        "[--attacks garbage,truncate,halfframe-rst,slowloris,oversize]\n");
    return flags.Has("help") ? 0 : 2;
  }
  std::string host = flags.GetString("host", "127.0.0.1");
  uint16_t port = static_cast<uint16_t>(flags.GetInt("port", 7433));
  const bool self_hosted = flags.GetBool("self", false);
  const int probe_timeout_ms =
      static_cast<int>(flags.GetInt("probe-timeout-ms", 1'000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string chosen = flags.GetString("attacks", "all");
  const int64_t duration_ms = flags.GetInt("duration-ms", 2'000);
  if (!flags.CheckAllRead()) {
    return 2;
  }
  std::signal(SIGINT, &OnSignal);
  std::signal(SIGTERM, &OnSignal);
  std::signal(SIGPIPE, SIG_IGN);  // RST attacks EPIPE our own writes too.

  // Hermetic mode: bring up a small loopback server to attack.
  std::unique_ptr<ServeServer> self;
  if (self_hosted) {
    ServeConfig config;
    config.port = 0;
    config.num_loops = 2;
    config.bridge.num_executors = 2;
    self = std::make_unique<ServeServer>(config);
    std::string error;
    if (!self->Start(&error)) {
      // Socketless sandbox: report success so the smoke test skips cleanly.
      std::fprintf(stderr, "serve_chaos: skipping (%s)\n", error.c_str());
      return 0;
    }
    host = "127.0.0.1";
    port = self->port();
  }

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    std::fprintf(stderr, "serve_chaos: invalid host: %s\n", host.c_str());
    return 2;
  }

  Battery battery;
  battery.addr = addr;
  battery.rng.seed(seed);
  battery.timeout_ms = probe_timeout_ms;

  struct Attack {
    const char* name;
    bool (Battery::*run)();
  };
  const Attack all[] = {
      {"garbage", &Battery::Garbage},
      {"truncate", &Battery::Truncate},
      {"halfframe-rst", &Battery::HalfFrameRst},
      {"slowloris", &Battery::Slowloris},
      {"oversize", &Battery::Oversize},
  };
  std::vector<Attack> attacks;
  for (const Attack& attack : all) {
    if (chosen == "all" ||
        chosen.find(attack.name) != std::string::npos) {
      attacks.push_back(attack);
    }
  }
  if (attacks.empty()) {
    std::fprintf(stderr, "serve_chaos: no known attack in --attacks\n");
    return 2;
  }

  if (!Probe(addr, probe_timeout_ms, 1)) {
    std::fprintf(stderr, "serve_chaos: server not answering at %s:%u\n",
                 host.c_str(), port);
    return 1;
  }

  const int64_t end_ns = MonotonicNowNs() + duration_ms * 1'000'000;
  int64_t rounds = 0;
  int64_t attacks_run = 0;
  int64_t attacks_skipped = 0;
  int64_t probes_ok = 0;
  int64_t probes_failed = 0;
  uint64_t probe_id = 2;
  while (g_stop == 0 && MonotonicNowNs() < end_ns) {
    for (const Attack& attack : attacks) {
      if (attack.run == nullptr ? false : !(battery.*(attack.run))()) {
        // Dial failed — the server may be mid-restart; the probe decides.
        ++attacks_skipped;
      } else {
        ++attacks_run;
      }
      if (Probe(addr, probe_timeout_ms, probe_id++)) {
        ++probes_ok;
      } else {
        ++probes_failed;
        std::fprintf(stderr,
                     "serve_chaos: probe FAILED after attack %s (round "
                     "%lld)\n",
                     attack.name, static_cast<long long>(rounds));
      }
      if (g_stop != 0 || MonotonicNowNs() >= end_ns) {
        break;
      }
    }
    ++rounds;
  }

  if (self != nullptr) {
    self->Stop();
  }
  std::printf("serve_chaos: rounds=%lld attacks=%lld skipped=%lld "
              "probes{ok=%lld failed=%lld} -> %s\n",
              static_cast<long long>(rounds),
              static_cast<long long>(attacks_run),
              static_cast<long long>(attacks_skipped),
              static_cast<long long>(probes_ok),
              static_cast<long long>(probes_failed),
              probes_failed == 0 ? "SURVIVED" : "DEGRADED");
  return probes_failed == 0 ? 0 : 1;
}
