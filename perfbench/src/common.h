#pragma once

/// \file common.h
/// Shared plumbing of the repository benchmark: arguments, the result that
/// becomes the final JSON line, the generated and golden inputs with their
/// ground truth, and the output-correctness checks every workload runs.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ideobf {
class CorpusGenerator;
}  // namespace ideobf

namespace perfbench {

/// Monotonic clock in seconds.
double now_seconds();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where results, spans and daemon state go (inside the checkout).
  std::string out_dir = ".bench_build";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` become the final JSON line; `notes`
/// (bases, sample counts, per-check detail) go to the human-readable report
/// and the stamped result file.
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit);
  void note(std::string key, std::string text);
  void fail(std::string reason);
};

/// One script a workload submits, with the generator's ground truth.
struct Item {
  std::string source;
  /// "" (PowerShell, the default) or "javascript".
  std::string language;
  /// The clean original the obfuscated source was generated from.
  std::string clean;
  /// A checked-in golden (data/regression or data/js): must round-trip.
  bool golden = false;
};

/// The 20 data/regression PowerShell goldens and the 10 data/js goldens,
/// read from the checkout root. Throws when either set is missing.
std::vector<Item> load_goldens();

/// `count` fresh CorpusGenerator samples (Table-I technique mix, 12%
/// multilayer) from `seed`, or the next `count` samples of `gen`.
std::vector<Item> generate_items(std::uint64_t seed, std::size_t count);
std::vector<Item> generate_items(ideobf::CorpusGenerator& gen,
                                 std::size_t count);

/// Output checks against generator ground truth, never against the
/// deobfuscator: key-info recall (Fig 5), sandbox network-behaviour match
/// with the clean original (Table IV), and the golden round trips (every
/// ground-truth URL and IP recovered for a PowerShell golden; the expected
/// plaintext byte for byte for a JavaScript golden).
struct Quality {
  std::int64_t keyinfo_items = 0;
  std::int64_t keyinfo_found = 0;
  std::int64_t behavior_scripts = 0;
  std::int64_t behavior_same = 0;
  std::int64_t goldens = 0;
  std::int64_t goldens_ok = 0;
  std::vector<std::string> golden_failures;

  void check(const Item& item, const std::string& output);
  /// Adds keyinfo_recall and behavior_match with their bases (as notes only
  /// when `as_metrics` is false, as in the traced run), and fails the run
  /// when a golden did not round-trip.
  void report(RunResult& result, bool as_metrics = true) const;
};

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double peak_rss_mb(int pid);
double own_peak_rss_mb();

/// Writes `text` to `path`, creating parent directories.
void write_file(const std::string& path, const std::string& text);

/// Result stamp: workload, seed, traced flag, source identity (git sha and
/// dirty flag when run from a git tree, else a digest of the sources),
/// nproc, compiler, build type and flags.
std::string stamp_json(const Args& args);

/// Where the traced run writes its spans.
std::string spans_path(const Args& args);

/// Adds served_share from result.attempted/result.failed, with the
/// failed_share it complements and its base.
void add_served_share(RunResult& result);

/// Prints the human-readable report plus the final JSON line, and writes
/// the stamped result file.
void emit(const Args& args, const RunResult& result);

}  // namespace perfbench
