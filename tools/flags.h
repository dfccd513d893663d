// Minimal command-line flag parsing for the CLI tools (no dependencies).
// Supports --name=value and --name value; unknown flags are errors: every
// Get*/Has marks its flag read, and a tool exits 2 when CheckAllRead() finds
// a flag it never read (misspelt, renamed, or meaningless in that mode).

#ifndef TOOLS_FLAGS_H_
#define TOOLS_FLAGS_H_

#include <cstdio>
#include <map>
#include <string>

#include "src/common/strings.h"

namespace faas {

class FlagParser {
 public:
  // Parses argv; returns false (and prints to stderr) on malformed input.
  bool Parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (!StartsWith(arg, "--")) {
        std::fprintf(stderr, "unexpected positional argument: %s\n", argv[i]);
        return false;
      }
      arg.remove_prefix(2);
      const size_t eq = arg.find('=');
      if (eq != std::string_view::npos) {
        values_[std::string(arg.substr(0, eq))] = {
            std::string(arg.substr(eq + 1))};
      } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
        values_[std::string(arg)] = {argv[++i]};
      } else {
        values_[std::string(arg)] = {"true"};  // Bare boolean flag.
      }
    }
    return true;
  }

  std::string GetString(const std::string& name,
                        const std::string& fallback) const {
    const std::string* value = Find(name);
    return value != nullptr ? *value : fallback;
  }

  int64_t GetInt(const std::string& name, int64_t fallback) const {
    const std::string* value = Find(name);
    if (value == nullptr) {
      return fallback;
    }
    return ParseInt64(*value).value_or(fallback);
  }

  double GetDouble(const std::string& name, double fallback) const {
    const std::string* value = Find(name);
    if (value == nullptr) {
      return fallback;
    }
    return ParseDouble(*value).value_or(fallback);
  }

  bool GetBool(const std::string& name, bool fallback) const {
    const std::string* value = Find(name);
    if (value == nullptr) {
      return fallback;
    }
    return *value == "true" || *value == "1";
  }

  bool Has(const std::string& name) const { return Find(name) != nullptr; }

  // Prints each flag no Get*/Has has read; true when there is none.
  bool CheckAllRead() const {
    bool all_read = true;
    for (const auto& [name, value] : values_) {
      if (!value.read) {
        std::fprintf(stderr, "unknown or unused flag: --%s\n", name.c_str());
        all_read = false;
      }
    }
    return all_read;
  }

 private:
  struct Value {
    std::string text;
    mutable bool read = false;
  };

  const std::string* Find(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      return nullptr;
    }
    it->second.read = true;
    return &it->second.text;
  }

  std::map<std::string, Value> values_;
};

}  // namespace faas

#endif  // TOOLS_FLAGS_H_
