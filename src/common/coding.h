#ifndef DISAGG_COMMON_CODING_H_
#define DISAGG_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"

namespace disagg {

/// Little-endian fixed-width and varint encoders used by log records, page
/// layouts, and network message framing.

inline void EncodeFixed32(char* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
inline void EncodeFixed64(char* dst, uint64_t v) { std::memcpy(dst, &v, 8); }

inline uint32_t DecodeFixed32(const char* src) {
  uint32_t v;
  std::memcpy(&v, src, 4);
  return v;
}
inline uint64_t DecodeFixed64(const char* src) {
  uint64_t v;
  std::memcpy(&v, src, 8);
  return v;
}

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  EncodeFixed32(buf, v);
  dst->append(buf, 4);
}
inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  EncodeFixed64(buf, v);
  dst->append(buf, 8);
}

/// Writes `v` as a varint64 at `dst` and returns the byte after it.
inline char* EncodeVarint64(char* dst, uint64_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<char>(static_cast<unsigned char>(v) | 0x80);
    v >>= 7;
  }
  *dst++ = static_cast<char>(v);
  return dst;
}

inline void PutVarint64(std::string* dst, uint64_t v) {
  char buf[10];
  dst->append(buf, static_cast<size_t>(EncodeVarint64(buf, v) - buf));
}

/// Number of bytes PutVarint64 writes for `v`.
inline size_t VarintLength(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    n++;
  }
  return n;
}

/// Parses a varint64 from the front of `input`, advancing it. Returns false
/// on malformed/truncated input, including a tenth byte above 1, whose bits
/// would not fit in 64.
inline bool GetVarint64(Slice* input, uint64_t* value) {
  uint64_t result = 0;
  for (uint32_t shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    const unsigned char byte = static_cast<unsigned char>((*input)[0]);
    input->remove_prefix(1);
    if (byte & 0x80) {
      result |= (static_cast<uint64_t>(byte & 0x7F) << shift);
    } else {
      if (shift == 63 && byte > 1) return false;
      result |= (static_cast<uint64_t>(byte) << shift);
      *value = result;
      return true;
    }
  }
  return false;
}

/// Advances `input` past one varint64 without decoding it. Accepts and
/// rejects exactly the inputs GetVarint64 does.
inline bool SkipVarint64(Slice* input) {
  const size_t limit = input->size() < 10 ? input->size() : 10;
  for (size_t i = 0; i < limit; i++) {
    const unsigned char byte = static_cast<unsigned char>((*input)[i]);
    if (!(byte & 0x80)) {
      if (i == 9 && byte > 1) return false;
      input->remove_prefix(i + 1);
      return true;
    }
  }
  return false;
}

inline void PutLengthPrefixedSlice(std::string* dst, const Slice& s) {
  PutVarint64(dst, s.size());
  dst->append(s.data(), s.size());
}

inline bool GetLengthPrefixedSlice(Slice* input, Slice* result) {
  uint64_t len = 0;
  if (!GetVarint64(input, &len)) return false;
  if (input->size() < len) return false;
  *result = Slice(input->data(), len);
  input->remove_prefix(len);
  return true;
}

inline bool GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < 8) return false;
  *value = DecodeFixed64(input->data());
  input->remove_prefix(8);
  return true;
}

inline bool GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < 4) return false;
  *value = DecodeFixed32(input->data());
  input->remove_prefix(4);
  return true;
}

}  // namespace disagg

#endif  // DISAGG_COMMON_CODING_H_
