#include "graph/binary_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <istream>
#include <iterator>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/fnv1a.h"
#include "util/gap_codec.h"
#include "util/thread_pool.h"

namespace sparqlsim::graph {

// The SQSIMDB3 dictionary block is the in-memory Dictionary arrays
// verbatim, mapped back without conversion.
static_assert(std::endian::native == std::endian::little,
              "SQSIMDB3 maps little-endian arrays in place");

namespace {

using util::Fnv1a64;

// 7-byte format tag + 1-byte version; see docs/DATASETS.md for the specs
// and the versioning policy. SaveV2() writes v3; v1 and v2 are read-only.
constexpr char kMagic[7] = {'S', 'Q', 'S', 'I', 'M', 'D', 'B'};
constexpr size_t kHeadBytes = sizeof(kMagic) + 1;
constexpr uint8_t kVersion1 = '1';
constexpr uint8_t kVersion2 = '2';
constexpr uint8_t kVersion3 = '3';
constexpr char kFooterMagic[8] = {'S', 'Q', 'S', 'I', 'M', 'F', 'T', '2'};
constexpr size_t kFooterBytes = 32;  // dir offset/length/checksum + magic

void AppendVarint(uint64_t value, std::vector<uint8_t>* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

void AppendU64Le(uint64_t value, std::vector<uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(value >> (8 * i)));
  }
}

uint64_t GetU64Le(const uint8_t* bytes) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  }
  return value;
}

/// Validating cursor over an in-memory (mapped or buffered) byte region.
struct ByteReader {
  std::span<const uint8_t> data;
  size_t pos = 0;

  bool ReadVarint(uint64_t* value) {
    *value = 0;
    unsigned shift = 0;
    while (true) {
      if (pos >= data.size() || shift > 63) return false;
      const uint8_t byte = data[pos++];
      if (shift == 63 && (byte & 0x7E) != 0) return false;
      *value |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return true;
      shift += 7;
    }
  }

  /// A varint-length-prefixed string, viewed in place.
  bool ReadString(std::string_view* s) {
    uint64_t length = 0;
    if (!ReadVarint(&length)) return false;
    if (length > data.size() - pos) return false;
    *s = {reinterpret_cast<const char*>(data.data() + pos),
          static_cast<size_t>(length)};
    pos += static_cast<size_t>(length);
    return true;
  }

  bool ReadByte(uint8_t* byte) {
    if (pos >= data.size()) return false;
    *byte = data[pos++];
    return true;
  }

  size_t remaining() const { return data.size() - pos; }
};

/// Per-predicate directory entry of a SQSIMDB2 file.
struct V2DirEntry {
  uint64_t offset = 0;    ///< absolute file offset of the block
  uint64_t length = 0;    ///< block length in bytes
  uint64_t fwd_rows = 0;  ///< non-empty rows of F_p
  uint64_t bwd_rows = 0;  ///< non-empty rows of B_p
  uint64_t nnz = 0;       ///< triples with this predicate
  uint64_t checksum = 0;  ///< FNV-1a-64 of the block bytes
};

/// One compressed per-predicate block plus its directory metadata, built
/// independently of every other block (the unit of writer parallelism).
struct V2Block {
  std::vector<uint8_t> bytes;
  V2DirEntry entry;  // offset filled in by the sequential writer
};

/// Appends one matrix in v2 row form: per non-empty row, varint row delta
/// (absolute for the first row), varint byte length, then the canonical
/// GAP/RLE row encoding over the `n`-bit universe.
void AppendMatrixV2(const util::BitMatrix& m, size_t n,
                    std::vector<uint8_t>* out) {
  uint32_t previous_row = 0;
  std::vector<uint8_t> row_bytes;
  m.ForEachRow([&](uint32_t row, std::span<const uint32_t> cols) {
    row_bytes.clear();
    util::GapCodec::EncodeFromIndices(cols, n, &row_bytes);
    AppendVarint(row - previous_row, out);
    previous_row = row;
    AppendVarint(row_bytes.size(), out);
    out->insert(out->end(), row_bytes.begin(), row_bytes.end());
  });
}

V2Block BuildPredicateBlock(const GraphDatabase& db, uint32_t p) {
  V2Block block;
  const util::BitMatrix& fwd = db.Forward(p);
  const util::BitMatrix& bwd = db.Backward(p);
  const size_t n = db.NumNodes();
  block.entry.fwd_rows = fwd.NumNonEmptyRows();
  block.entry.bwd_rows = bwd.NumNonEmptyRows();
  block.entry.nnz = fwd.Nnz();
  AppendMatrixV2(fwd, n, &block.bytes);
  AppendMatrixV2(bwd, n, &block.bytes);
  block.entry.length = block.bytes.size();
  block.entry.checksum = Fnv1a64(block.bytes);
  return block;
}

// SQSIMDB3 dictionary block: a header of six u64 counts and a checksum,
// then 8-byte-aligned sections (docs/DATASETS.md has the byte layout). The
// block is handled as 64-bit words throughout, so its checksum is FNV-1a
// over words rather than bytes: a mapped block is re-validated on every
// open, and a word step costs what a byte step does.
constexpr size_t kDictCountWords = 6;
constexpr size_t kDictHeaderWords = kDictCountWords + 1;

uint64_t DictionaryChecksum(std::span<const uint64_t> block) {
  return util::Fnv1a64Words(block.subspan(kDictHeaderWords),
                            util::Fnv1a64Words(block.first(kDictCountWords)));
}

/// Appends `values` as raw bytes, zero-padded to whole words.
template <typename T>
void AppendSection(std::span<const T> values, std::vector<uint64_t>* block) {
  const size_t at = block->size();
  block->resize(at + (values.size_bytes() + 7) / 8, 0);
  if (!values.empty()) {
    std::memcpy(block->data() + at, values.data(), values.size_bytes());
  }
}

/// The SQSIMDB3 dictionary block: both dictionaries' arrays verbatim plus
/// the literal flags as a bitmap. A pure function of the dictionaries.
std::vector<uint64_t> BuildFlatDictionary(const GraphDatabase& db) {
  const Dictionary& nodes = db.nodes();
  const Dictionary& predicates = db.predicates();
  std::vector<uint64_t> block = {nodes.size(),
                                 nodes.blob().size(),
                                 nodes.buckets().size(),
                                 predicates.size(),
                                 predicates.blob().size(),
                                 predicates.buckets().size(),
                                 0};  // checksum, filled in last
  std::vector<uint64_t> literal((nodes.size() + 63) / 64, 0);
  for (uint32_t node = 0; node < nodes.size(); ++node) {
    if (db.IsLiteral(node)) literal[node / 64] |= uint64_t{1} << (node % 64);
  }
  auto append_dictionary = [&](const Dictionary& dict) {
    AppendSection(dict.offsets(), &block);
    AppendSection(dict.buckets(), &block);
    AppendSection(dict.blob(), &block);
  };
  append_dictionary(nodes);
  AppendSection(std::span<const uint64_t>(literal), &block);
  append_dictionary(predicates);
  block[kDictCountWords] = DictionaryChecksum(block);
  return block;
}

/// Bounds-checked cursor over the word-aligned sections of an SQSIMDB3
/// dictionary block.
struct SectionReader {
  std::span<const uint64_t> words;
  size_t pos = 0;  ///< in words

  template <typename T>
  bool Take(uint64_t count, std::span<const T>* out) {
    const size_t room = words.size() - pos;
    if (count > room * (sizeof(uint64_t) / sizeof(T))) return false;
    *out = {reinterpret_cast<const T*>(words.data() + pos),
            static_cast<size_t>(count)};
    pos += (static_cast<size_t>(count) * sizeof(T) + 7) / 8;
    return true;
  }
};

void WriteDirectoryAndFooter(const std::vector<V2DirEntry>& dir,
                             uint64_t dir_offset, std::ostream& out) {
  std::vector<uint8_t> dir_bytes;
  for (const V2DirEntry& e : dir) {
    AppendVarint(e.offset, &dir_bytes);
    AppendVarint(e.length, &dir_bytes);
    AppendVarint(e.fwd_rows, &dir_bytes);
    AppendVarint(e.bwd_rows, &dir_bytes);
    AppendVarint(e.nnz, &dir_bytes);
    AppendU64Le(e.checksum, &dir_bytes);
  }
  std::vector<uint8_t> footer;
  AppendU64Le(dir_offset, &footer);
  AppendU64Le(dir_bytes.size(), &footer);
  AppendU64Le(Fnv1a64(dir_bytes), &footer);
  footer.insert(footer.end(), std::begin(kFooterMagic),
                std::end(kFooterMagic));
  for (const std::vector<uint8_t>* bytes : {&dir_bytes, &footer}) {
    out.write(reinterpret_cast<const char*>(bytes->data()),
              static_cast<std::streamsize>(bytes->size()));
  }
}

/// Commits a finished tmp file to its destination via rename, so `path`
/// either holds a complete database or is left untouched (satellite of the
/// I/O hardening sweep: an interrupted or failed write must never leave a
/// silently-truncated .gdb at the destination).
util::Status CommitTempFile(std::ofstream& out, const std::string& tmp,
                            const std::string& path) {
  out.flush();
  const bool good = out.good();
  out.close();
  if (!good) {
    std::remove(tmp.c_str());
    return util::Status::Error("write failure on " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::Status::Error("cannot rename " + tmp + " to " + path);
  }
  return util::Status::Ok();
}

/// The byte span every load reads, and the decode-on-fault reader of the
/// SQSIMDB2/3 predicate blocks in it. Owns either a read-only mapping of
/// the file or (stream loads, and files that cannot be mapped) a heap
/// buffer, aligned either way so SQSIMDB3 dictionary arrays are read in
/// place.
class MmapBacking : public OutOfCoreBacking {
 public:
  using OutOfCoreBacking::AttachSlot;  // loader wires slots up

  ~MmapBacking() override {
    if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
  }

  /// Buffers the rest of `in`.
  static std::shared_ptr<MmapBacking> FromStream(std::istream& in) {
    std::string bytes;
    char block[1 << 16];
    while (in.read(block, sizeof(block)) || in.gcount() > 0) {
      bytes.append(block, static_cast<size_t>(in.gcount()));
    }
    auto backing = std::make_shared<MmapBacking>();
    backing->Allocate(bytes.size());
    std::memcpy(backing->buffer_.get(), bytes.data(), bytes.size());
    return backing;
  }

  /// Maps `path` read-only; falls back to reading it into a heap buffer
  /// when mmap is unavailable for the file.
  static util::Result<std::shared_ptr<MmapBacking>> FromFile(
      const std::string& path) {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return util::Status::Error("cannot open " + path);
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return util::Status::Error("cannot stat " + path);
    }
    auto backing = std::make_shared<MmapBacking>();
    const size_t len = static_cast<size_t>(st.st_size);
    if (len > 0) {
      void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
      if (base != MAP_FAILED) {
        backing->map_base_ = base;
        backing->map_len_ = len;
      } else {
        // Filesystems without mmap support: same lazy semantics over a
        // heap copy of the file.
        backing->Allocate(len);
        size_t done = 0;
        while (done < len) {
          ssize_t got =
              ::read(fd, backing->buffer_.get() + done, len - done);
          if (got <= 0) {
            ::close(fd);
            return util::Status::Error("cannot read " + path);
          }
          done += static_cast<size_t>(got);
        }
      }
    }
    ::close(fd);
    return backing;
  }

  std::span<const uint8_t> data() const {
    if (map_base_ != nullptr) {
      return {static_cast<const uint8_t*>(map_base_), map_len_};
    }
    return {reinterpret_cast<const uint8_t*>(buffer_.get()), buffer_len_};
  }

  size_t num_nodes = 0;
  std::vector<V2DirEntry> dir;

 protected:
  util::Result<std::shared_ptr<const Slab>> DecodeSlab(
      uint32_t p) const override {
    const V2DirEntry& e = dir[p];
    std::span<const uint8_t> block =
        data().subspan(e.offset, e.length);  // bounds validated at open
    if (Fnv1a64(block) != e.checksum) {
      return util::Status::Error("predicate block " + std::to_string(p) +
                                 ": checksum mismatch");
    }
    ByteReader reader{block};
    std::vector<std::pair<uint32_t, uint32_t>> fwd_entries;
    std::vector<std::pair<uint32_t, uint32_t>> bwd_entries;
    fwd_entries.reserve(e.nnz);
    bwd_entries.reserve(e.nnz);
    util::Status status =
        DecodeMatrixV2(&reader, e.fwd_rows, &fwd_entries, p);
    if (!status.ok()) return status;
    status = DecodeMatrixV2(&reader, e.bwd_rows, &bwd_entries, p);
    if (!status.ok()) return status;
    if (reader.pos != block.size()) {
      return util::Status::Error("predicate block " + std::to_string(p) +
                                 ": trailing bytes");
    }
    auto slab = std::make_shared<GraphDatabase::PredicateSlab>();
    slab->forward = util::BitMatrix::Build(num_nodes, num_nodes,
                                           std::move(fwd_entries));
    slab->backward = util::BitMatrix::Build(num_nodes, num_nodes,
                                            std::move(bwd_entries));
    if (slab->forward.Nnz() != e.nnz || slab->backward.Nnz() != e.nnz) {
      return util::Status::Error("predicate block " + std::to_string(p) +
                                 ": triple count disagrees with directory");
    }
    return std::shared_ptr<const Slab>(std::move(slab));
  }

 private:
  util::Status DecodeMatrixV2(
      ByteReader* reader, uint64_t rows,
      std::vector<std::pair<uint32_t, uint32_t>>* entries, uint32_t p) const {
    const size_t n = num_nodes;
    uint64_t row = 0;
    std::vector<uint32_t> indices;
    for (uint64_t i = 0; i < rows; ++i) {
      uint64_t delta = 0, length = 0;
      if (!reader->ReadVarint(&delta) || !reader->ReadVarint(&length)) {
        return util::Status::Error("predicate block " + std::to_string(p) +
                                   ": truncated row header");
      }
      // Rows ascend strictly, so both the delta and the accumulator stay
      // under the universe size — no wraparound is representable.
      if (delta >= n || (i > 0 && delta == 0)) {
        return util::Status::Error("predicate block " + std::to_string(p) +
                                   ": row delta out of range");
      }
      row += delta;
      if (row >= n) {
        return util::Status::Error("predicate block " + std::to_string(p) +
                                   ": row id out of range");
      }
      if (length > reader->remaining()) {
        return util::Status::Error("predicate block " + std::to_string(p) +
                                   ": truncated row payload");
      }
      indices.clear();
      if (!util::GapCodec::TryDecodeIndices(
              reader->data.subspan(reader->pos,
                                   static_cast<size_t>(length)),
              n, &indices) ||
          indices.empty()) {
        return util::Status::Error("predicate block " + std::to_string(p) +
                                   ": malformed row encoding");
      }
      reader->pos += static_cast<size_t>(length);
      for (uint32_t col : indices) {
        entries->emplace_back(static_cast<uint32_t>(row), col);
      }
    }
    return util::Status::Ok();
  }

  /// A byte array provides storage for the dictionary arrays that are
  /// read from it in place, and new[] aligns it for any of them.
  void Allocate(size_t len) {
    buffer_.reset(new std::byte[len]);
    buffer_len_ = len;
  }

  void* map_base_ = nullptr;
  size_t map_len_ = 0;
  std::unique_ptr<std::byte[]> buffer_;  ///< heap copy when not mapped
  size_t buffer_len_ = 0;
};

/// The dictionaries and literal flags of a file, plus the offset within the
/// parsed region where the dictionary block ends.
struct OpenedDictionary {
  std::shared_ptr<const Dictionary> nodes;
  std::shared_ptr<const Dictionary> predicates;
  std::shared_ptr<const std::vector<bool>> is_literal;
  uint64_t end = 0;
};

/// Reads a v1/v2 dictionary block (varint-prefixed names) by interning
/// every name.
util::Result<OpenedDictionary> InternVarintDictionary(
    std::span<const uint8_t> region) {
  ByteReader dict{region};
  uint64_t num_nodes = 0, num_predicates = 0;
  if (!dict.ReadVarint(&num_nodes) || !dict.ReadVarint(&num_predicates)) {
    return util::Status::Error("truncated header");
  }
  if (num_nodes > UINT32_MAX || num_predicates > UINT32_MAX) {
    return util::Status::Error(
        "corrupt header: counts exceed the 32-bit id space");
  }
  // Every node entry takes at least two bytes (length and literal flag),
  // which bounds the up-front reservation by the block's real size.
  if (num_nodes > dict.remaining() / 2) {
    return util::Status::Error("truncated nodes");
  }
  auto nodes = std::make_shared<Dictionary>();
  auto predicates = std::make_shared<Dictionary>();
  auto is_literal = std::make_shared<std::vector<bool>>();
  nodes->Reserve(num_nodes);
  is_literal->reserve(num_nodes);
  std::string_view name;
  for (uint64_t i = 0; i < num_nodes; ++i) {
    uint8_t literal = 0;
    if (!dict.ReadString(&name) || !dict.ReadByte(&literal)) {
      return util::Status::Error("truncated nodes");
    }
    if (nodes->Intern(name) != i) {
      return util::Status::Error("duplicate node entry");
    }
    is_literal->push_back(literal != 0);
  }
  for (uint64_t p = 0; p < num_predicates; ++p) {
    if (!dict.ReadString(&name)) {
      return util::Status::Error("truncated predicates");
    }
    if (predicates->Intern(name) != p) {
      return util::Status::Error("duplicate predicate entry");
    }
  }
  return OpenedDictionary{std::move(nodes), std::move(predicates),
                          std::move(is_literal), dict.pos};
}

/// Maps a v3 dictionary block in place: validates it (checksum, section
/// bounds, then Dictionary::Map's structural rules) without allocating per
/// name. `owner` keeps the bytes alive for the dictionaries' lifetime.
util::Result<OpenedDictionary> MapV3Dictionary(
    std::span<const uint8_t> region, std::shared_ptr<const void> owner) {
  // The region starts 8 bytes into an 8-byte-aligned mapping or buffer.
  const std::span<const uint64_t> words(
      reinterpret_cast<const uint64_t*>(region.data()), region.size() / 8);
  if (words.size() < kDictHeaderWords) {
    return util::Status::Error("truncated dictionary header");
  }
  const uint64_t num_nodes = words[0];
  const uint64_t num_predicates = words[3];
  if (num_nodes >= UINT32_MAX || num_predicates >= UINT32_MAX) {
    return util::Status::Error(
        "corrupt header: counts exceed the 32-bit id space");
  }
  SectionReader sections{words, kDictHeaderWords};
  std::span<const uint64_t> node_offsets, predicate_offsets, literal;
  std::span<const uint32_t> node_buckets, predicate_buckets;
  std::span<const char> node_blob, predicate_blob;
  if (!sections.Take(num_nodes + 1, &node_offsets) ||
      !sections.Take(words[2], &node_buckets) ||
      !sections.Take(words[1], &node_blob) ||
      !sections.Take((num_nodes + 63) / 64, &literal) ||
      !sections.Take(num_predicates + 1, &predicate_offsets) ||
      !sections.Take(words[5], &predicate_buckets) ||
      !sections.Take(words[4], &predicate_blob)) {
    return util::Status::Error("truncated dictionary section");
  }
  if (DictionaryChecksum(words.first(sections.pos)) !=
      words[kDictCountWords]) {
    return util::Status::Error("dictionary checksum mismatch");
  }
  auto nodes = Dictionary::Map(node_blob, node_offsets, node_buckets, owner);
  if (!nodes.ok()) {
    return util::Status::Error("node " + nodes.error_message());
  }
  auto predicates = Dictionary::Map(predicate_blob, predicate_offsets,
                                    predicate_buckets, owner);
  if (!predicates.ok()) {
    return util::Status::Error("predicate " + predicates.error_message());
  }
  if (num_nodes % 64 != 0 && (literal.back() >> (num_nodes % 64)) != 0) {
    return util::Status::Error("literal flags set past the last node");
  }
  auto is_literal = std::make_shared<std::vector<bool>>(num_nodes);
  for (uint32_t node = 0; node < num_nodes; ++node) {
    (*is_literal)[node] = (literal[node / 64] >> (node % 64)) & 1;
  }
  return OpenedDictionary{std::move(nodes).value(),
                          std::move(predicates).value(), is_literal,
                          sections.pos * sizeof(uint64_t)};
}

}  // namespace

// ---------------------------------------------------------------------------
// The reader: version dispatch, the v1 parse, and the SQSIMDB2/3 open path
// (footer -> directory -> dictionary -> lazy slots)
// ---------------------------------------------------------------------------

class BinaryIo::Reader {
 public:
  /// Checks the magic and version byte once, then parses `backing`'s bytes.
  static util::Result<GraphDatabase> Open(std::shared_ptr<MmapBacking> backing,
                                          const LoadOptions& options) {
    const std::span<const uint8_t> file = backing->data();
    if (file.size() < kHeadBytes ||
        std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
      return util::Status::Error(
          "not a sparqlsim binary database (bad magic; expected a file "
          "written by sparqlsim_ingest)");
    }
    switch (file[sizeof(kMagic)]) {
      case kVersion1:
        return OpenV1(file.subspan(kHeadBytes));
      case kVersion2:
      case kVersion3:
        return OpenFooterIndexed(std::move(backing), options);
    }
    return util::Status::Error(
        std::string("unsupported sparqlsim database version '") +
        static_cast<char>(file[sizeof(kMagic)]) +
        "' (this build reads versions '1', '2' and '3')");
  }

 private:
  /// SQSIMDB1: the varint dictionary, then per predicate the forward rows
  /// as varint row deltas, degrees and column deltas.
  static util::Result<GraphDatabase> OpenV1(std::span<const uint8_t> body) {
    auto opened = InternVarintDictionary(body);
    if (!opened.ok()) return opened.status();
    OpenedDictionary& dict = opened.value();
    const uint64_t num_nodes = dict.nodes->size();
    const std::vector<bool>& is_literal = *dict.is_literal;
    ByteReader in{body, static_cast<size_t>(dict.end)};
    std::vector<Triple> triples;
    for (uint32_t p = 0; p < dict.predicates->size(); ++p) {
      uint64_t num_rows = 0;
      if (!in.ReadVarint(&num_rows)) {
        return util::Status::Error("truncated matrix header");
      }
      if (num_rows > num_nodes) {
        return util::Status::Error(
            "corrupt matrix header: row count exceeds the node universe");
      }
      uint64_t row = 0;
      for (uint64_t r = 0; r < num_rows; ++r) {
        uint64_t row_delta = 0, degree = 0;
        if (!in.ReadVarint(&row_delta) || !in.ReadVarint(&degree)) {
          return util::Status::Error("truncated row");
        }
        // Rows ascend strictly within the universe, so any valid delta is
        // below num_nodes. Rejecting the delta *before* the addition keeps
        // the accumulator from wrapping: a ~2^64 varint delta would
        // otherwise overflow `row`/`col` back under num_nodes, pass the
        // range check, and add a garbage triple via the uint32_t cast.
        if (row_delta >= num_nodes || (r > 0 && row_delta == 0)) {
          return util::Status::Error(
              "corrupt matrix payload: row delta out of range");
        }
        row += row_delta;
        if (row >= num_nodes) {
          return util::Status::Error(
              "corrupt matrix payload: row id out of range");
        }
        if (degree > num_nodes) {
          return util::Status::Error(
              "corrupt matrix payload: row degree exceeds the node universe");
        }
        uint64_t col = 0;
        for (uint64_t c = 0; c < degree; ++c) {
          uint64_t col_delta = 0;
          if (!in.ReadVarint(&col_delta)) {
            return util::Status::Error("truncated columns");
          }
          if (col_delta >= num_nodes || (c > 0 && col_delta == 0)) {
            return util::Status::Error(
                "corrupt matrix payload: column delta out of range");
          }
          col += col_delta;
          if (col >= num_nodes) {
            return util::Status::Error(
                "corrupt matrix payload: column id out of range");
          }
          if (is_literal[row]) {  // Def. 1: literals have no out-edges
            return util::Status::Error(
                "literal '" +
                std::string(dict.nodes->Name(static_cast<uint32_t>(row))) +
                "' used in subject position (Def. 1)");
          }
          triples.push_back({static_cast<uint32_t>(row), p,
                             static_cast<uint32_t>(col)});
        }
      }
    }
    GraphDatabase db;
    db.nodes_ = std::move(dict.nodes);
    db.predicates_ = std::move(dict.predicates);
    db.is_literal_ = std::move(dict.is_literal);
    db.BuildMatrices(std::move(triples));
    return db;
  }

  /// SQSIMDB2/3: footer, directory and dictionary are validated here; the
  /// predicate blocks decode when first touched.
  static util::Result<GraphDatabase> OpenFooterIndexed(
      std::shared_ptr<MmapBacking> backing, const LoadOptions& options) {
    const std::span<const uint8_t> file = backing->data();
    if (file.size() < kHeadBytes + kFooterBytes) {
      return util::Status::Error("truncated SQSIMDB2 file: no footer");
    }
    std::span<const uint8_t> footer = file.subspan(file.size() - kFooterBytes);
    if (std::memcmp(footer.data() + 24, kFooterMagic,
                    sizeof(kFooterMagic)) != 0) {
      return util::Status::Error(
          "truncated or corrupt SQSIMDB2 file: bad footer magic");
    }
    const uint64_t dir_offset = GetU64Le(footer.data());
    const uint64_t dir_length = GetU64Le(footer.data() + 8);
    const uint64_t dir_checksum = GetU64Le(footer.data() + 16);
    const uint64_t payload_end = file.size() - kFooterBytes;
    if (dir_offset < kHeadBytes || dir_length > payload_end ||
        dir_offset > payload_end - dir_length) {
      return util::Status::Error(
          "corrupt SQSIMDB2 file: directory bounds out of range");
    }
    std::span<const uint8_t> dir_bytes =
        file.subspan(static_cast<size_t>(dir_offset),
                     static_cast<size_t>(dir_length));
    if (Fnv1a64(dir_bytes) != dir_checksum) {
      return util::Status::Error(
          "corrupt SQSIMDB2 file: directory checksum mismatch");
    }

    // Dictionary block, directly after the magic.
    const std::span<const uint8_t> dict_region = file.subspan(
        kHeadBytes, static_cast<size_t>(dir_offset) - kHeadBytes);
    auto opened = file[sizeof(kMagic)] == kVersion3
                      ? MapV3Dictionary(dict_region, backing)
                      : InternVarintDictionary(dict_region);
    if (!opened.ok()) return opened.status();
    OpenedDictionary& dict = opened.value();
    const uint64_t num_nodes = dict.nodes->size();
    const uint64_t num_predicates = dict.predicates->size();
    const uint64_t dict_end = kHeadBytes + dict.end;

    // Per-predicate directory; every block's bounds are validated here so
    // the fault path can index the mapping without re-checking.
    ByteReader dr{dir_bytes};
    backing->dir.resize(num_predicates);
    uint64_t total_nnz = 0;
    for (uint64_t p = 0; p < num_predicates; ++p) {
      V2DirEntry& e = backing->dir[p];
      if (!dr.ReadVarint(&e.offset) || !dr.ReadVarint(&e.length) ||
          !dr.ReadVarint(&e.fwd_rows) || !dr.ReadVarint(&e.bwd_rows) ||
          !dr.ReadVarint(&e.nnz) || dr.remaining() < 8) {
        return util::Status::Error(
            "corrupt SQSIMDB2 file: truncated directory");
      }
      e.checksum = GetU64Le(dir_bytes.data() + dr.pos);
      dr.pos += 8;
      if (e.offset < dict_end || e.length > dir_offset ||
          e.offset > dir_offset - e.length) {
        return util::Status::Error("corrupt SQSIMDB2 file: predicate block " +
                                   std::to_string(p) + " out of bounds");
      }
      if (e.fwd_rows > num_nodes || e.bwd_rows > num_nodes ||
          e.fwd_rows > e.nnz || e.bwd_rows > e.nnz ||
          e.nnz > num_nodes * num_nodes) {
        return util::Status::Error("corrupt SQSIMDB2 file: predicate block " +
                                   std::to_string(p) +
                                   " row counts out of range");
      }
      total_nnz += e.nnz;
    }
    if (dr.pos != dir_bytes.size()) {
      return util::Status::Error(
          "corrupt SQSIMDB2 file: trailing directory bytes");
    }
    backing->num_nodes = static_cast<size_t>(num_nodes);

    GraphDatabase db;
    db.nodes_ = std::move(dict.nodes);
    db.predicates_ = std::move(dict.predicates);
    db.is_literal_ = std::move(dict.is_literal);
    db.num_triples_ = static_cast<size_t>(total_nnz);
    db.generation_ = GraphDatabase::NextGeneration();
    db.backing_ = backing;
    db.slots_.reserve(num_predicates);
    for (uint64_t p = 0; p < num_predicates; ++p) {
      auto slot = std::make_shared<GraphDatabase::PredicateSlot>();
      slot->backing = backing;
      slot->predicate = static_cast<uint32_t>(p);
      slot->nnz = static_cast<size_t>(backing->dir[p].nnz);
      backing->AttachSlot(static_cast<uint32_t>(p), slot);
      db.slots_.push_back(std::move(slot));
    }

    backing->SetBudgetBytes(options.resident_budget_bytes);
    return db;
  }
};

// ---------------------------------------------------------------------------
// The one SQSIMDB3 writer, and the two load entries into the one reader
// ---------------------------------------------------------------------------

namespace {

/// Writes `db` as SQSIMDB3: the magic and dictionary block, the
/// per-predicate blocks, then the directory and footer. `threads` workers
/// compress blocks ahead of the write cursor while this thread writes
/// finished ones in predicate order, so compression and I/O overlap. The
/// bytes are identical for every thread count: block content is a pure
/// function of (db, p) and the write order is fixed.
void WriteV3(const GraphDatabase& db, std::ostream& out, size_t threads) {
  ResidencyPin pin = db.PinResidency();
  const std::vector<uint64_t> dict = BuildFlatDictionary(db);
  const size_t dict_bytes = dict.size() * sizeof(uint64_t);
  out.write(kMagic, sizeof(kMagic));
  out.put(static_cast<char>(kVersion3));
  out.write(reinterpret_cast<const char*>(dict.data()),
            static_cast<std::streamsize>(dict_bytes));
  uint64_t offset = kHeadBytes + dict_bytes;

  util::ThreadPool pool(util::ThreadPool::ResolveThreadCount(threads));
  const size_t window = 2 * pool.NumThreads() + 2;
  std::deque<std::future<V2Block>> inflight;
  std::vector<V2DirEntry> dir(db.NumPredicates());
  uint32_t next_write = 0;
  auto drain_one = [&] {
    V2Block block = inflight.front().get();
    inflight.pop_front();
    block.entry.offset = offset;
    offset += block.entry.length;
    dir[next_write++] = block.entry;
    out.write(reinterpret_cast<const char*>(block.bytes.data()),
              static_cast<std::streamsize>(block.bytes.size()));
  };
  for (uint32_t p = 0; p < db.NumPredicates(); ++p) {
    while (inflight.size() >= window) drain_one();
    auto promise = std::make_shared<std::promise<V2Block>>();
    inflight.push_back(promise->get_future());
    pool.Submit([&db, p, promise] {
      promise->set_value(BuildPredicateBlock(db, p));
    });
  }
  while (!inflight.empty()) drain_one();
  WriteDirectoryAndFooter(dir, offset, out);
}

}  // namespace

void BinaryIo::SaveV2(const GraphDatabase& db, std::ostream& out) {
  WriteV3(db, out, /*threads=*/1);
}

util::Status BinaryIo::SaveV2File(const GraphDatabase& db,
                                  const std::string& path, size_t threads) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out) return util::Status::Error("cannot write " + tmp);
  WriteV3(db, out, threads);
  return CommitTempFile(out, tmp, path);
}

util::Result<GraphDatabase> BinaryIo::Load(std::istream& in) {
  return Reader::Open(MmapBacking::FromStream(in), LoadOptions());
}

util::Result<GraphDatabase> BinaryIo::LoadFile(const std::string& path,
                                               const LoadOptions& options) {
  auto backing = MmapBacking::FromFile(path);
  if (!backing.ok()) return backing.status();
  return Reader::Open(std::move(backing).value(), options);
}

}  // namespace sparqlsim::graph
