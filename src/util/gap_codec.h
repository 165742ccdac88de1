#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/bitvector.h"

namespace sparqlsim::util {

/// Streaming reader over a gap-length-encoded buffer (see GapCodec).
///
/// Every run length is LEB128-varint encoded; the reader validates as it
/// goes instead of trusting the buffer: a truncated varint (continuation
/// bit set at end of input) or a varint wider than 64 bits marks the
/// stream `malformed()` and stops it. Callers that stream untrusted or
/// at-rest bytes (GapCodec::TryDecode and TryDecodeIndices, which read
/// SQSIMDB2 blocks) never index past the span.
class GapReader {
 public:
  explicit GapReader(std::span<const uint8_t> buffer) : buffer_(buffer) {}

  /// Reads the next run length into `*run`. Returns false at a clean end
  /// of buffer or on malformed input — distinguish with malformed().
  bool ReadRun(uint64_t* run) {
    if (pos_ >= buffer_.size()) return false;
    uint64_t value = 0;
    unsigned shift = 0;
    while (true) {
      if (pos_ >= buffer_.size() || shift >= 64) {
        malformed_ = true;  // truncated varint, or one wider than 64 bits
        return false;
      }
      const uint8_t byte = buffer_[pos_++];
      if (shift == 63 && (byte & 0x7E) != 0) {
        malformed_ = true;  // high bits past 2^64
        return false;
      }
      value |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    *run = value;
    return true;
  }

  bool AtEnd() const { return pos_ >= buffer_.size(); }
  bool malformed() const { return malformed_; }

 private:
  std::span<const uint8_t> buffer_;
  size_t pos_ = 0;
  bool malformed_ = false;
};

/// Run-merging writer producing the canonical GapCodec byte stream: the
/// alternating run sequence always starts with a zero-run (possibly of
/// length 0) and never contains an interior zero-length run, because
/// adjacent same-value appends are merged before being flushed. Feeding
/// the writer the runs of a vector in order therefore reproduces
/// GapCodec::Encode byte for byte, which keeps run-built streams
/// directly comparable with encoded ones.
class GapWriter {
 public:
  /// Appends `run_len` bits of `value`; zero-length appends are ignored.
  void Append(bool value, uint64_t run_len) {
    if (run_len == 0) return;
    if (value == pending_value_) {
      pending_ += run_len;
      return;
    }
    Flush();
    pending_value_ = value;
    pending_ = run_len;
  }

  /// Total bits appended so far.
  uint64_t BitsWritten() const { return bits_written_ + pending_; }

  /// Flushes the trailing run and returns the encoded buffer.
  std::vector<uint8_t> Take() {
    if (pending_ > 0) Flush();
    return std::move(out_);
  }

 private:
  void Flush();

  std::vector<uint8_t> out_;
  bool pending_value_ = false;  // a stream must start with a zero-run
  uint64_t pending_ = 0;
  uint64_t bits_written_ = 0;
  bool emitted_any_ = false;
};

/// Gap-length (run-length) encoding of a bit vector.
///
/// The paper (Sect. 3.3) points out that bit-vector storage techniques such
/// as gap-length encoding make the memory footprint of adjacency matrices
/// depend on run structure rather than raw bit count. This codec stores a
/// bit vector as the sequence of alternating run lengths, starting with the
/// length of the initial zero-run (possibly 0), each length LEB128-varint
/// encoded. It backs the at-rest row storage statistics and the SQSIMDB2
/// per-predicate matrix blocks (graph/binary_io.h).
class GapCodec {
 public:
  /// Encodes `bits` into a byte buffer (word-wise run extraction, not a
  /// per-bit scan).
  static std::vector<uint8_t> Encode(const BitVector& bits);

  /// Decodes a buffer produced by Encode. `num_bits` must match the
  /// original vector size; malformed input aborts (use TryDecode for
  /// untrusted bytes).
  static BitVector Decode(const std::vector<uint8_t>& buffer, size_t num_bits);

  /// Checked decode for untrusted input. Rejects (nullopt): truncated or
  /// over-wide varints, interior zero-length runs, run sums that overshoot
  /// or undershoot `num_bits`, and trailing bytes past the final run.
  static std::optional<BitVector> TryDecode(std::span<const uint8_t> buffer,
                                            size_t num_bits);

  /// Encoded size in bytes without materializing the buffer.
  static size_t EncodedSize(const BitVector& bits);

  /// Encoded size of a row given as sorted set-bit indices over a universe
  /// of `num_bits` — O(indices) instead of O(num_bits), which is what
  /// makes whole-database storage reports affordable.
  static size_t EncodedSizeFromIndices(std::span<const uint32_t> indices,
                                       size_t num_bits);

  /// Appends the canonical encoding of a row given as sorted, duplicate-free
  /// set-bit indices over a `num_bits` universe — byte-identical to
  /// Encode(BitVector with those bits set) but O(indices) instead of
  /// O(num_bits). This is the at-rest row writer of the SQSIMDB2 format.
  static void EncodeFromIndices(std::span<const uint32_t> indices,
                                size_t num_bits, std::vector<uint8_t>* out);

  /// Checked decode of a canonical buffer into sorted set-bit indices,
  /// appended to `*out`. Applies the same validation as TryDecode; returns
  /// false on malformed input (`*out` may then hold a partial prefix).
  static bool TryDecodeIndices(std::span<const uint8_t> buffer,
                               size_t num_bits, std::vector<uint32_t>* out);
};

}  // namespace sparqlsim::util
