// Minimal, dependency-free binary serialization used for every wire message.
//
// Both transports (the deterministic simulator and the real TCP transport)
// carry opaque byte payloads, so the protocol code path — encode, ship,
// decode — is identical in simulation and on real sockets.  Encoding is
// little-endian, length-prefixed, and deliberately boring.
//
// Memory discipline (the fuzz loop runs millions of encode/decode cycles):
//   * Writer draws its buffer from a thread-local slab pool; a runtime that
//     finishes with a payload hands the buffer back via recycle_buffer(),
//     so steady-state encoding never touches the heap.  The pool is pure
//     capacity reuse — contents are always rewritten from scratch — so it
//     cannot affect determinism.
//   * Decode exposes *non-owning* views (WireList) over the payload bytes:
//     list-valued message fields iterate the wire representation in place
//     instead of materializing an owning vector per field.  A view is only
//     valid while the backing payload is.
#pragma once

#include <cstdint>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace gmpx {

/// Thrown when a payload cannot be decoded (truncated or corrupt frame).
/// Both transports treat this as a fatal programming error in-process, and
/// as a peer protocol violation over TCP.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// Thread-local pool of recycled payload buffers.  One pool per thread
/// matches both runtimes: the sweep runs one SimWorld per worker thread and
/// the TCP runtime recycles on each node's event-loop thread.
struct BufferPool {
  std::vector<std::vector<uint8_t>> free;
  static BufferPool& instance() {
    thread_local BufferPool pool;
    return pool;
  }
};
}  // namespace detail

/// Return a payload buffer to the calling thread's pool (capacity reuse;
/// the next Writer on this thread starts from it instead of the heap).
inline void recycle_buffer(std::vector<uint8_t>&& buf) {
  if (buf.capacity() == 0) return;
  auto& pool = detail::BufferPool::instance().free;
  if (pool.size() >= 1024) return;  // bound the pool; excess buffers free
  buf.clear();
  pool.push_back(std::move(buf));
}

/// Pool-backed byte copy of an encoded payload.  Encode-once fan-out: a
/// broadcast serializes its message one time and ships bit-identical
/// copies, so the copy is a memcpy into a recycled buffer instead of a
/// field-by-field re-encode per destination.
inline std::vector<uint8_t> copy_buffer_pooled(const std::vector<uint8_t>& src) {
  std::vector<uint8_t> out;
  auto& pool = detail::BufferPool::instance().free;
  if (!pool.empty()) {
    out = std::move(pool.back());
    pool.pop_back();
  }
  out.assign(src.begin(), src.end());
  return out;
}

/// Fixed wire layout per element type.  Lists encode as u32 count followed
/// by `size` bytes per element; WireList decodes elements on access.
template <typename T>
struct WireTraits;

template <>
struct WireTraits<ProcessId> {
  static constexpr size_t size = 4;
  static ProcessId read(const uint8_t* p) {
    ProcessId v;
    std::memcpy(&v, p, 4);
    return v;
  }
};

template <>
struct WireTraits<SeqEntry> {
  static constexpr size_t size = 9;  // u8 op + u32 target + u32 version
  static SeqEntry read(const uint8_t* p) {
    SeqEntry e;
    e.op = static_cast<Op>(p[0]);
    std::memcpy(&e.target, p + 1, 4);
    std::memcpy(&e.resulting_version, p + 5, 4);
    return e;
  }
};

template <>
struct WireTraits<NextEntry> {
  static constexpr size_t size = 14;  // u8 op + 3*u32 + u8 bool
  static NextEntry read(const uint8_t* p) {
    NextEntry e;
    e.op = static_cast<Op>(p[0]);
    std::memcpy(&e.target, p + 1, 4);
    std::memcpy(&e.coordinator, p + 5, 4);
    std::memcpy(&e.version, p + 9, 4);
    e.pending_coordinator_only = p[13] != 0;
    return e;
  }
};

/// Non-owning decoded list: iterates the wire bytes in place, decoding one
/// element per dereference.  Valid only while the backing payload lives —
/// handlers that must retain a list copy it into owned storage (which, for
/// pooled protocol state, reuses existing capacity).
template <typename T>
class WireList {
 public:
  WireList() = default;
  WireList(const uint8_t* base, uint32_t n) : base_(base), n_(n) {}

  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = const T*;
    using reference = T;

    iterator() = default;
    explicit iterator(const uint8_t* p) : p_(p) {}
    T operator*() const { return WireTraits<T>::read(p_); }
    iterator& operator++() {
      p_ += WireTraits<T>::size;
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++*this;
      return t;
    }
    bool operator==(const iterator&) const = default;

   private:
    const uint8_t* p_ = nullptr;
  };

  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  T operator[](size_t i) const { return WireTraits<T>::read(base_ + i * WireTraits<T>::size); }
  T front() const { return (*this)[0]; }
  T back() const { return (*this)[n_ - 1]; }
  iterator begin() const { return iterator(base_); }
  iterator end() const { return iterator(base_ + size_t{n_} * WireTraits<T>::size); }

  /// Owning copy (cold paths that must retain the list).
  std::vector<T> to_vector() const { return std::vector<T>(begin(), end()); }

 private:
  const uint8_t* base_ = nullptr;
  uint32_t n_ = 0;
};

/// Append-only byte sink with fixed-width little-endian primitives.
class Writer {
 public:
  /// Start from a recycled thread-pool buffer when one is available; a cold
  /// pool allocates once and reserves a cache line of payload (nearly every
  /// protocol message fits in 64 bytes).
  Writer() {
    auto& pool = detail::BufferPool::instance().free;
    if (!pool.empty()) {
      buf_ = std::move(pool.back());
      pool.pop_back();
    } else {
      buf_.reserve(64);
    }
  }

  /// Raw little-endian integer write.
  template <typename T>
  void u(T v) {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
    unsigned char tmp[sizeof(T)];
    std::memcpy(tmp, &v, sizeof(T));
    buf_.insert(buf_.end(), tmp, tmp + sizeof(T));
  }

  void u8(uint8_t v) { u(v); }
  void u32(uint32_t v) { u(v); }
  void u64(uint64_t v) { u(v); }
  void b(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u32(static_cast<uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void ids(const std::vector<ProcessId>& v) {
    u32(static_cast<uint32_t>(v.size()));
    for (ProcessId p : v) u32(p);
  }

  void seq_entry(const SeqEntry& e) {
    u8(static_cast<uint8_t>(e.op));
    u32(e.target);
    u32(e.resulting_version);
  }

  void seq(const std::vector<SeqEntry>& v) {
    u32(static_cast<uint32_t>(v.size()));
    for (const auto& e : v) seq_entry(e);
  }

  void next_entry(const NextEntry& e) {
    u8(static_cast<uint8_t>(e.op));
    u32(e.target);
    u32(e.coordinator);
    u32(e.version);
    b(e.pending_coordinator_only);
  }

  void next(const std::vector<NextEntry>& v) {
    u32(static_cast<uint32_t>(v.size()));
    for (const auto& e : v) next_entry(e);
  }

  /// Finalize and steal the buffer.
  std::vector<uint8_t> take() && { return std::move(buf_); }
  const std::vector<uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

/// Sequential reader over an encoded payload; throws CodecError on underrun.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& buf) : buf_(buf) {}

  template <typename T>
  T u() {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
    if (pos_ + sizeof(T) > buf_.size()) throw CodecError("payload underrun");
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  uint8_t u8() { return u<uint8_t>(); }
  uint32_t u32() { return u<uint32_t>(); }
  uint64_t u64() { return u<uint64_t>(); }
  bool b() { return u8() != 0; }

  std::string str() { return std::string(str_view()); }

  /// Non-owning view of the next length-prefixed string; valid only while
  /// the backing payload is.
  std::string_view str_view() {
    uint32_t n = u32();
    if (pos_ + n > buf_.size()) throw CodecError("string underrun");
    std::string_view s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Non-owning list view over the next `count * wire-size` bytes.  Bounds
  /// are validated here, so iterating the returned view cannot underrun.
  template <typename T>
  WireList<T> list() {
    uint32_t n = u32();
    size_t span = size_t{n} * WireTraits<T>::size;
    if (pos_ + span > buf_.size()) throw CodecError("list underrun");
    WireList<T> v(buf_.data() + pos_, n);
    pos_ += span;
    return v;
  }

  WireList<ProcessId> ids_view() { return list<ProcessId>(); }
  WireList<SeqEntry> seq_view() { return list<SeqEntry>(); }
  WireList<NextEntry> next_view() { return list<NextEntry>(); }

  /// Owning-decode conveniences (cold paths and tests).
  std::vector<ProcessId> ids() { return ids_view().to_vector(); }
  std::vector<SeqEntry> seq() { return seq_view().to_vector(); }
  std::vector<NextEntry> next() { return next_view().to_vector(); }

  SeqEntry seq_entry() {
    SeqEntry e;
    e.op = static_cast<Op>(u8());
    e.target = u32();
    e.resulting_version = u32();
    return e;
  }

  NextEntry next_entry() {
    NextEntry e;
    e.op = static_cast<Op>(u8());
    e.target = u32();
    e.coordinator = u32();
    e.version = u32();
    e.pending_coordinator_only = b();
    return e;
  }

  /// True when the whole payload has been consumed.
  bool done() const { return pos_ == buf_.size(); }

  /// Asserts full consumption; catches messages with trailing garbage.
  void expect_done() const {
    if (!done()) throw CodecError("trailing bytes in payload");
  }

 private:
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

}  // namespace gmpx
