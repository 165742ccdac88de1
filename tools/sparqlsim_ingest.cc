// sparqlsim-ingest — converts real-world N-Triples dumps (LUBM, DBpedia,
// any RDF export) into the SQSIMDB3 binary database consumed by
// `sparqlsim_cli --db` and the bench harnesses: a footer-indexed file
// whose dictionary block is mapped, not interned, and whose predicate
// matrices load lazily (see docs/DATASETS.md).
//
//   sparqlsim_ingest [options] <in.nt | in.nt.gz | -> <out.gdb>
//
// Options:
//   --permissive   count and skip malformed lines instead of aborting —
//                  the right mode for real dumps
//   --threads N    parser threads (default 0 = all hardware threads;
//                  output is byte-identical for every value)
//   --chunk-mb M   parallel parse chunk size in MiB (default 8; tuning
//                  knob only, never changes the output)
//   --stats        print line/triple/malformed counters and phase timings
//
// `.gz` inputs are streamed through `gzip -dc` (no temporary file);
// `-` reads N-Triples from stdin. The conversion is deterministic: the
// same input produces the same output bytes regardless of --threads and
// --chunk-mb, so converted artifacts can be checksummed and shared (see
// tools/fetch_datasets.sh and docs/DATASETS.md).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <istream>
#include <memory>
#include <optional>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "tool_common.h"

#include "graph/binary_io.h"
#include "graph/graph_database.h"
#include "graph/ntriples.h"
#include "util/stopwatch.h"

namespace sparqlsim {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: sparqlsim_ingest [--permissive] [--threads N] [--chunk-mb M] "
      "[--stats] <in.nt[.gz]|-> <out.gdb>\n"
      "  converts an N-Triples dump (optionally gzip-compressed, '-' for\n"
      "  stdin) to the mmap-able SQSIMDB3 binary database format; see\n"
      "  docs/DATASETS.md for the end-to-end dataset workflow\n");
  return 2;
}

using tools::HasSuffix;

int MissingValue(const char* flag) {
  std::fprintf(stderr, "%s needs a value\n", flag);
  return Usage();
}

/// Minimal read-only streambuf over a popen'd pipe, used to stream
/// `gzip -dc` output into the chunked parser without a temporary file.
class PipeStreamBuf : public std::streambuf {
 public:
  explicit PipeStreamBuf(FILE* pipe) : pipe_(pipe) {}

 protected:
  int_type underflow() override {
    size_t got = std::fread(buffer_, 1, sizeof(buffer_), pipe_);
    if (got == 0) return traits_type::eof();
    setg(buffer_, buffer_, buffer_ + got);
    return traits_type::to_int_type(buffer_[0]);
  }

 private:
  FILE* pipe_;
  char buffer_[1 << 16];
};

/// Single-quotes `path` for the shell ('\'' splice for embedded quotes).
std::string ShellQuote(const std::string& path) {
  std::string quoted = "'";
  for (char c : path) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted.push_back(c);
    }
  }
  quoted.push_back('\'');
  return quoted;
}

struct IngestConfig {
  std::string input;
  std::string output;
  graph::NTriplesOptions parse;
  bool print_stats = false;
};

int RunIngest(const IngestConfig& config) {
  util::Stopwatch total_watch;
  util::Stopwatch phase_watch;

  // Open the input: stdin, a gzip pipe, or a plain file.
  std::unique_ptr<std::ifstream> file;
  std::unique_ptr<PipeStreamBuf> pipe_buf;
  std::unique_ptr<std::istream> pipe_stream;
  FILE* pipe = nullptr;
  std::istream* in = nullptr;

  if (config.input == "-") {
    in = &std::cin;
  } else if (HasSuffix(config.input, ".gz")) {
    std::string command =
        "exec gzip -dc < " + ShellQuote(config.input);
    pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) {
      std::fprintf(stderr, "error: cannot spawn '%s'\n", command.c_str());
      return 1;
    }
    pipe_buf = std::make_unique<PipeStreamBuf>(pipe);
    pipe_stream = std::make_unique<std::istream>(pipe_buf.get());
    in = pipe_stream.get();
  } else {
    file = std::make_unique<std::ifstream>(config.input, std::ios::binary);
    if (!*file) {
      std::fprintf(stderr, "error: cannot open %s\n", config.input.c_str());
      return 1;
    }
    in = file.get();
  }

  // Parse (parallel), then freeze the builder, then serialize.
  graph::GraphDatabaseBuilder builder;
  graph::NTriplesStats stats;
  util::Status status =
      graph::NTriples::LoadParallel(*in, &builder, config.parse, &stats);
  if (pipe != nullptr && pclose(pipe) != 0 && status.ok()) {
    status = util::Status::Error("decompression command failed on " +
                                 config.input);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error parsing %s: %s\n", config.input.c_str(),
                 status.message().c_str());
    return 1;
  }
  double parse_seconds = phase_watch.ElapsedSeconds();

  phase_watch.Restart();
  graph::GraphDatabase db = std::move(builder).Build();
  double build_seconds = phase_watch.ElapsedSeconds();

  phase_watch.Restart();
  // The writer goes through a tmp file + atomic rename, so a failed or
  // interrupted ingest never leaves a partial database at the output path.
  util::Status saved = graph::BinaryIo::SaveV2File(db, config.output,
                                                   config.parse.num_threads);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.message().c_str());
    return 1;
  }
  double write_seconds = phase_watch.ElapsedSeconds();

  std::fprintf(stderr,
               "ingested %zu triples (%zu nodes, %zu predicates) -> %s "
               "in %.2fs\n",
               db.NumTriples(), db.NumNodes(), db.NumPredicates(),
               config.output.c_str(), total_watch.ElapsedSeconds());
  if (stats.malformed_lines > 0) {
    std::fprintf(stderr, "skipped %zu malformed line%s (first: %s)\n",
                 stats.malformed_lines,
                 stats.malformed_lines == 1 ? "" : "s",
                 stats.first_error.c_str());
  }
  if (config.print_stats) {
    std::printf("lines:            %zu\n", stats.lines);
    std::printf("triples (input):  %zu\n", stats.triples);
    std::printf("triples (dedup):  %zu\n", db.NumTriples());
    std::printf("malformed lines:  %zu\n", stats.malformed_lines);
    std::printf("nodes:            %zu\n", db.NumNodes());
    std::printf("predicates:       %zu\n", db.NumPredicates());
    std::printf("parse seconds:    %.3f\n", parse_seconds);
    std::printf("build seconds:    %.3f\n", build_seconds);
    std::printf("write seconds:    %.3f\n", write_seconds);
  }
  return 0;
}

int Run(int argc, char** argv) {
  IngestConfig config;
  config.parse.num_threads = 0;  // default: all hardware threads

  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* value = nullptr;
    if (arg == "--permissive") {
      config.parse.permissive = true;
    } else if (arg == "--stats") {
      config.print_stats = true;
    } else if (tools::FlagValue(argc, argv, &i, "--threads", &value)) {
      if (value == nullptr) return MissingValue("--threads");
      if (!tools::ParseSize(value, "--threads", &config.parse.num_threads)) {
        return Usage();
      }
    } else if (tools::FlagValue(argc, argv, &i, "--chunk-mb", &value)) {
      if (value == nullptr) return MissingValue("--chunk-mb");
      size_t mb = 0;
      if (!tools::ParseSize(value, "--chunk-mb", &mb, 20)) return Usage();
      if (mb == 0) {
        std::fprintf(stderr, "--chunk-mb must be >= 1\n");
        return Usage();
      }
      config.parse.chunk_bytes = mb << 20;
    } else if (arg.starts_with("--")) {
      std::fprintf(stderr, "unknown option %s\n", argv[i]);
      return Usage();
    } else {
      positional.emplace_back(arg);
    }
  }
  if (positional.size() != 2) return Usage();
  config.input = positional[0];
  config.output = positional[1];
  return RunIngest(config);
}

}  // namespace
}  // namespace sparqlsim

int main(int argc, char** argv) { return sparqlsim::Run(argc, argv); }
