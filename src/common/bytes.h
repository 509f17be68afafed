// Byte-buffer vocabulary types and conversions.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace griddles {

using Bytes = std::vector<std::byte>;
using ByteSpan = std::span<const std::byte>;
using MutableByteSpan = std::span<std::byte>;

/// An immutable, reference-counted byte string with O(1) slicing: the
/// unit of ownership on the wire path (DESIGN.md §15). Copying a Buffer
/// shares its bytes; slice() shares a sub-range; it converts to a
/// ByteSpan like any contiguous range. A Buffer built by copying (or by
/// uninitialized()) keeps kHeadroom spare bytes in front of its data,
/// so the layers above can prepend their headers there (grow_front)
/// instead of copying the payload behind a fresh header.
class Buffer {
 public:
  /// Spare bytes reserved in front of a new buffer's data: room for an
  /// XDR field head plus an RPC frame header.
  static constexpr std::size_t kHeadroom = 128;

  using value_type = std::byte;
  using const_iterator = const std::byte*;
  using iterator = const_iterator;

  Buffer() = default;
  Buffer(const Buffer&) = default;
  Buffer& operator=(const Buffer&) = default;
  /// A moved-from buffer is empty, not a view of storage it no longer
  /// keeps alive.
  Buffer(Buffer&& other) noexcept
      : owner_(std::move(other.owner_)),
        data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        footprint_(std::exchange(other.footprint_, 0)) {}
  Buffer& operator=(Buffer&& other) noexcept {
    if (this != &other) {
      owner_ = std::move(other.owner_);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      footprint_ = std::exchange(other.footprint_, 0);
    }
    return *this;
  }
  /// Adopts `bytes` without copying them (and without headroom).
  Buffer(Bytes&& bytes) {  // NOLINT(google-explicit-constructor)
    auto owner = std::make_shared<Bytes>(std::move(bytes));
    data_ = owner->data();
    size_ = owner->size();
    footprint_ = owner->capacity();
    owner_ = std::shared_ptr<const void>(owner, owner->data());
  }
  /// Copies `bytes` into a new buffer.
  Buffer(ByteSpan bytes) {  // NOLINT(google-explicit-constructor)
    MutableByteSpan out;
    *this = uninitialized(bytes.size(), out);
    if (!bytes.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
  }
  Buffer(const Bytes& bytes)  // NOLINT(google-explicit-constructor)
      : Buffer(ByteSpan(bytes)) {}

  /// A new buffer of `size` uninitialised bytes, with `out` pointed at
  /// them. Fill them before the buffer is copied or shared; it is
  /// immutable from then on.
  static Buffer uninitialized(std::size_t size, MutableByteSpan& out) {
    Buffer buffer;
    if (size == 0) {
      out = {};
      return buffer;
    }
    auto owner = std::make_shared_for_overwrite<std::byte[]>(kHeadroom + size);
    out = {owner.get() + kHeadroom, size};
    buffer.data_ = out.data();
    buffer.size_ = size;
    buffer.footprint_ = kHeadroom + size;
    buffer.owner_ = std::move(owner);
    return buffer;
  }

  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const_iterator begin() const noexcept { return data_; }
  const_iterator end() const noexcept { return data_ + size_; }
  std::byte operator[](std::size_t i) const noexcept { return data_[i]; }

  /// The `length` bytes at `offset`, sharing this buffer's storage.
  /// Clamped to the buffer's end.
  Buffer slice(std::size_t offset, std::size_t length) const {
    Buffer out = *this;
    out.data_ += std::min(offset, size_);
    out.size_ = std::min(length, size_ - std::min(offset, size_));
    return out;
  }

  /// What a holder that keeps the bytes for long should store: this
  /// slice when it is most of the storage it keeps alive, otherwise a
  /// copy, so a small retained slice never pins a large buffer.
  Buffer compact() const {
    return 2 * size_ >= footprint_ ? *this : Buffer(ByteSpan(*this));
  }

  /// This buffer behind `head_size` new bytes, with `head` pointed at
  /// them for the caller to fill before sharing the result. The head is
  /// written into the spare bytes in front of the data when this is the
  /// only reference to its storage and they suffice; otherwise head and
  /// data are copied into a new buffer.
  Buffer grow_front(std::size_t head_size, MutableByteSpan& head) && {
    const auto* base = static_cast<const std::byte*>(owner_.get());
    if (owner_ != nullptr && owner_.use_count() == 1 &&
        static_cast<std::size_t>(data_ - base) >= head_size) {
      // Sole owner: nothing else can observe the bytes in front of the
      // slice, and the storage was allocated writable.
      data_ -= head_size;
      size_ += head_size;
      head = {const_cast<std::byte*>(data_), head_size};
      return std::move(*this);
    }
    MutableByteSpan out;
    Buffer grown = uninitialized(head_size + size_, out);
    if (size_ != 0) std::memcpy(out.data() + head_size, data_, size_);
    head = out.first(head_size);
    return grown;
  }

  /// Replaces the contents with `count` copies of `value`.
  void assign(std::size_t count, std::byte value) {
    MutableByteSpan out;
    *this = uninitialized(count, out);
    std::memset(out.data(), static_cast<int>(value), count);
  }

  friend bool operator==(const Buffer& a, const Buffer& b) noexcept {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
  }

 private:
  std::shared_ptr<const void> owner_;  // .get() is the storage's start
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t footprint_ = 0;  // bytes of storage owner_ keeps alive
};

inline Bytes to_bytes(std::string_view text) {
  Bytes out(text.size());
  std::memcpy(out.data(), text.data(), text.size());
  return out;
}

inline std::string to_string(ByteSpan bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

inline ByteSpan as_bytes_view(std::string_view text) {
  return {reinterpret_cast<const std::byte*>(text.data()), text.size()};
}

/// 64-bit FNV-1a; used for content checksums in tests, replica etags and
/// copy verification. The incremental form hashes a stream chunk by
/// chunk: seed with kFnv1aSeed, fold each chunk through fnv1a_update.
constexpr std::uint64_t kFnv1aSeed = 0xcbf29ce484222325ULL;

inline std::uint64_t fnv1a_update(std::uint64_t hash, ByteSpan bytes) {
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

inline std::uint64_t fnv1a(ByteSpan bytes) {
  return fnv1a_update(kFnv1aSeed, bytes);
}

}  // namespace griddles
