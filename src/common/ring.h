// Growable FIFO ring buffer over a power-of-two vector.
//
// std::deque allocates and frees a block every few hundred pushes as a FIFO
// slides forward; this ring reallocates only when it outgrows its capacity,
// so a queue with a bounded working set stops allocating once warm.  Popped
// elements are left in place (not destroyed) until overwritten, so `T`
// should be a plain value type.

#ifndef SRC_COMMON_RING_H_
#define SRC_COMMON_RING_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace faas {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  // The i-th element counted from the front.
  T& operator[](size_t i) { return buf_[(head_ + i) & (buf_.size() - 1)]; }
  const T& operator[](size_t i) const {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }

  void push_back(T value) {
    if (size_ == buf_.size()) {
      Grow();
    }
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }
  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  void Grow() {
    std::vector<T> next(buf_.empty() ? 16 : 2 * buf_.size());
    for (size_t i = 0; i < size_; ++i) {
      next[i] = std::move((*this)[i]);
    }
    buf_.swap(next);
    head_ = 0;
  }

  std::vector<T> buf_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace faas

#endif  // SRC_COMMON_RING_H_
