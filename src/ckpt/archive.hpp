// Byte-stream archives for snapshot serialization.
//
// CkptWriter and CkptReader expose the *same* mutating interface — every
// primitive takes a reference, writing it on save and overwriting it on
// load — so one `template <class Ar> void ckpt_io(Ar&)` function per
// component serves both directions and the two can never drift apart.
// A component's ckpt_io is one field list.  It branches on
// `Ar::kIsWriter` only for a load-side validation or rebuild step
// (refusing a corrupt value, recounting a derived index); the container
// helpers in ckpt/snapshot.cpp (io_seq, io_map, io_set, io_optional,
// io_ring, ...) own every other asymmetry — sorting an unordered
// container on save, bounding a count or refusing a repeated key on load.
//
// Encoding is explicit little-endian via common/endian.hpp, so a
// snapshot taken on one machine resumes bit-identically on any other.
// Floating-point values travel as their IEEE-754 bit patterns — a
// restored accumulator is the *same double*, not a near one.
//
// The stream is divided into named sections ("CORE", "SMS ", ...), each
// framed as  fourcc + u32 payload length + payload + u32 CRC-32.  The
// reader verifies tag, length, and CRC per section and every primitive
// is bounds-checked against its section, so a truncated or corrupted
// snapshot raises ckpt::CkptError (error.hpp) instead of reading
// garbage.  next_section() walks the same framing whatever the tags
// (inspect_snapshot, tools/latdiv-ckpt).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "ckpt/error.hpp"
#include "common/crc32.hpp"
#include "common/endian.hpp"

namespace latdiv::ckpt {

/// Section frame: 4-byte tag + u32 payload length (header), u32 CRC-32
/// of the payload (trailer).
inline constexpr std::size_t kSectionHeaderBytes = 8;
inline constexpr std::size_t kSectionTrailerBytes = 4;

class CkptWriter {
 public:
  static constexpr bool kIsWriter = true;

  /// Open a new section; closes (length-patches and CRC-stamps) the
  /// previous one.  `tag` must be exactly 4 characters.
  void section(const char* tag) {
    close_section();
    section_start_ = out_.size();
    out_.insert(out_.end(), tag, tag + 4);
    out_.resize(out_.size() + 4);  // length, patched by close_section()
  }

  void u8(const std::uint8_t& v) { out_.push_back(v); }
  void u16(const std::uint16_t& v) {
    unsigned char b[2];
    put_le16(b, v);
    out_.insert(out_.end(), b, b + 2);
  }
  void u32(const std::uint32_t& v) {
    unsigned char b[4];
    put_le32(b, v);
    out_.insert(out_.end(), b, b + 4);
  }
  void u64(const std::uint64_t& v) {
    unsigned char b[8];
    put_le64(b, v);
    out_.insert(out_.end(), b, b + 8);
  }
  void b(const bool& v) { out_.push_back(v ? 1 : 0); }
  /// IEEE-754 bit pattern: the restored value is bit-identical.
  void f64(const double& v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void str(const std::string& s) {
    const std::uint32_t n = static_cast<std::uint32_t>(s.size());
    u32(n);
    out_.insert(out_.end(), s.begin(), s.end());
  }

  /// Finish the stream: closes the open section and returns the bytes.
  [[nodiscard]] std::vector<unsigned char> finish() {
    close_section();
    return std::move(out_);
  }

 private:
  void close_section() {
    if (section_start_ == kNone) return;
    const std::size_t payload_at = section_start_ + kSectionHeaderBytes;
    const std::size_t payload_len = out_.size() - payload_at;
    put_le32(out_.data() + section_start_ + 4,
             static_cast<std::uint32_t>(payload_len));
    unsigned char crc[4];
    put_le32(crc, crc32(out_.data() + payload_at, payload_len));
    out_.insert(out_.end(), crc, crc + 4);
    section_start_ = kNone;
  }

  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<unsigned char> out_;
  std::size_t section_start_ = kNone;
};

class CkptReader {
 public:
  static constexpr bool kIsWriter = false;

  CkptReader(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  /// Enter the next section; the previous one must be fully consumed.
  /// Verifies tag, bounds, and payload CRC before any field is read.
  void section(const char* tag) {
    if (section_end_ != 0 && pos_ != section_end_) {
      throw CkptError("snapshot corrupt: trailing bytes in section '" +
                      current_tag_ + "'");
    }
    if (section_end_ != 0) pos_ += kSectionTrailerBytes;  // skip verified CRC
    if (pos_ + kSectionHeaderBytes > size_) {
      throw CkptError(std::string("snapshot truncated: expected section '") +
                      tag + "'");
    }
    const std::string found(reinterpret_cast<const char*>(data_ + pos_), 4);
    if (found != std::string(tag, 4)) {
      throw CkptError("snapshot corrupt: expected section '" +
                      std::string(tag, 4) + "', found '" + found + "'");
    }
    enter(found);
  }

  /// Skip the rest of the current section and enter the next one
  /// whatever its tag, with the same bounds and CRC checks as section();
  /// remaining() is then its payload length.  Returns false at the end
  /// of the stream.  For walking the framing without decoding payloads.
  [[nodiscard]] bool next_section(std::string& tag) {
    if (section_end_ != 0) pos_ = section_end_ + kSectionTrailerBytes;
    if (pos_ == size_) return false;
    if (pos_ + kSectionHeaderBytes > size_) {
      throw CkptError("snapshot truncated: partial section header");
    }
    tag.assign(reinterpret_cast<const char*>(data_ + pos_), 4);
    enter(tag);
    return true;
  }

  void u8(std::uint8_t& v) { v = take(1)[0]; }
  void u16(std::uint16_t& v) { v = get_le16(take(2)); }
  void u32(std::uint32_t& v) { v = get_le32(take(4)); }
  void u64(std::uint64_t& v) { v = get_le64(take(8)); }
  void b(bool& v) { v = take(1)[0] != 0; }
  void f64(double& v) {
    std::uint64_t bits = 0;
    u64(bits);
    std::memcpy(&v, &bits, sizeof(v));
  }
  void str(std::string& s) {
    std::uint32_t n = 0;
    u32(n);
    const unsigned char* p = take(n);
    s.assign(reinterpret_cast<const char*>(p), n);
  }

  /// Bytes left in the current section.  Every serialized element reads
  /// at least one byte, so this bounds any element count read from it.
  [[nodiscard]] std::size_t remaining() const { return section_end_ - pos_; }

  /// All sections consumed?  Called by load_snapshot after the last read.
  void finish() {
    if (pos_ != section_end_) {
      throw CkptError("snapshot corrupt: trailing bytes in section '" +
                      current_tag_ + "'");
    }
    if (section_end_ != 0) pos_ += kSectionTrailerBytes;
    if (pos_ != size_) {
      throw CkptError("snapshot corrupt: trailing bytes after final section");
    }
  }

 private:
  /// Frame the section whose header starts at pos_: length bounds and
  /// payload CRC.
  void enter(const std::string& tag) {
    const std::uint32_t len = get_le32(data_ + pos_ + 4);
    pos_ += kSectionHeaderBytes;
    if (pos_ + len + kSectionTrailerBytes > size_) {
      throw CkptError("snapshot truncated: section '" + tag +
                      "' overruns the file");
    }
    if (crc32(data_ + pos_, len) != get_le32(data_ + pos_ + len)) {
      throw CkptError("snapshot corrupt: CRC mismatch in section '" + tag +
                      "'");
    }
    current_tag_ = tag;
    section_end_ = pos_ + len;
  }

  const unsigned char* take(std::size_t n) {
    if (pos_ + n > section_end_) {
      throw CkptError("snapshot truncated: read past end of section '" +
                      current_tag_ + "'");
    }
    const unsigned char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::size_t section_end_ = 0;
  std::string current_tag_;
};

}  // namespace latdiv::ckpt
