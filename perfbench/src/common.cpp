#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analysis/json_writer.h"
#include "corpus/corpus.h"
#include "sandbox/sandbox.h"

namespace perfbench {

namespace fs = std::filesystem;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RunResult::add(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) fail(name + " is not a finite number");
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void RunResult::note(std::string key, std::string text) {
  notes.emplace_back(std::move(key), std::move(text));
}

void RunResult::fail(std::string reason) {
  correct = false;
  errors.push_back(std::move(reason));
}

namespace {

bool slurp(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

/// Reads data/<dir>/sample_N.{obf,clean}.<ext> pairs until the first gap.
std::size_t load_pairs(const std::string& dir, const std::string& ext,
                       const std::string& language, std::vector<Item>& out) {
  std::size_t n = 0;
  for (int i = 0;; ++i, ++n) {
    const fs::path base = fs::path("data") / dir;
    const std::string stem = "sample_" + std::to_string(i);
    Item item;
    if (!slurp(base / (stem + ".obf." + ext), item.source) ||
        !slurp(base / (stem + ".clean." + ext), item.clean)) {
      break;
    }
    item.language = language;
    item.golden = true;
    out.push_back(std::move(item));
  }
  return n;
}

/// Shortest round-trip decimal form; non-finite values (which JSON cannot
/// carry) render as 0.
std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

bool same_network(const std::string& a, const std::string& b) {
  static const ideobf::Sandbox sandbox;
  return ideobf::Sandbox::same_network_behavior(sandbox.run(a),
                                                sandbox.run(b));
}

}  // namespace

std::vector<Item> load_goldens() {
  std::vector<Item> items;
  if (load_pairs("regression", "ps1", "", items) < 20) {
    throw std::runtime_error(
        "data/regression must hold at least 20 golden pairs (run from the "
        "repository root)");
  }
  if (load_pairs("js", "js", "javascript", items) < 10) {
    throw std::runtime_error("data/js must hold at least 10 golden pairs");
  }
  return items;
}

std::vector<Item> generate_items(std::uint64_t seed, std::size_t count) {
  ideobf::CorpusGenerator gen(seed);
  return generate_items(gen, count);
}

std::vector<Item> generate_items(ideobf::CorpusGenerator& gen,
                                 std::size_t count) {
  std::vector<Item> items;
  items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ideobf::Sample s = gen.generate();
    Item item;
    item.source = std::move(s.obfuscated);
    item.clean = std::move(s.original);
    items.push_back(std::move(item));
  }
  return items;
}

void Quality::check(const Item& item, const std::string& output) {
  if (item.language == "javascript") {
    // The JS front-end's goldens are exact fixed points.
    goldens++;
    if (output == item.clean) {
      goldens_ok++;
    } else {
      golden_failures.push_back("js golden differs from expected plaintext");
    }
    return;
  }
  const ideobf::KeyInfo truth = ideobf::extract_key_info(item.clean);
  const ideobf::KeyInfo found = ideobf::extract_key_info(output);
  keyinfo_items += truth.total();
  keyinfo_found += truth.recovered_in(found);
  behavior_scripts++;
  if (same_network(item.clean, output)) behavior_same++;
  if (item.golden) {
    goldens++;
    bool ok = true;
    for (const auto& u : truth.urls) ok = ok && found.urls.count(u) > 0;
    for (const auto& ip : truth.ips) ok = ok && found.ips.count(ip) > 0;
    if (ok) {
      goldens_ok++;
    } else {
      golden_failures.push_back("ps golden lost a ground-truth URL or IP");
    }
  }
}

void Quality::report(RunResult& result, bool as_metrics) const {
  const double recall =
      keyinfo_items > 0 ? static_cast<double>(keyinfo_found) / keyinfo_items
                        : 0.0;
  const double match =
      behavior_scripts > 0
          ? static_cast<double>(behavior_same) / behavior_scripts
          : 0.0;
  if (as_metrics) {
    result.add("keyinfo_recall", recall, "ratio");
    result.add("behavior_match", match, "ratio");
  }
  result.note("keyinfo_recall",
              std::to_string(recall) + " (" + std::to_string(keyinfo_found) +
                  " of " + std::to_string(keyinfo_items) +
                  " ground-truth items)");
  result.note("behavior_match",
              std::to_string(match) + " (" + std::to_string(behavior_same) +
                  " of " + std::to_string(behavior_scripts) +
                  " PowerShell scripts)");
  result.note("goldens", std::to_string(goldens_ok) + " of " +
                             std::to_string(goldens) + " round-tripped");
  if (goldens < 30) result.fail("fewer than 30 goldens were checked");
  for (const std::string& f : golden_failures) result.fail(f);
}

double peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double own_peak_rss_mb() { return peak_rss_mb(static_cast<int>(::getpid())); }

void write_file(const std::string& path, const std::string& text) {
  const fs::path p(path);
  if (p.has_parent_path()) fs::create_directories(p.parent_path());
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out << text;
}

std::string stamp_json(const Args& args) {
  const auto env = [](const char* name, const char* fallback) {
    const char* v = std::getenv(name);
    return std::string(v != nullptr && *v != '\0' ? v : fallback);
  };
  const std::string flags = PERFBENCH_CXX_FLAGS;
  const bool sanitized = flags.find("-fsanitize") != std::string::npos;
  const bool optimized = flags.find("-O2") != std::string::npos ||
                         flags.find("-O3") != std::string::npos;
  ideobf::JsonWriter w;
  w.begin_object();
  w.field("workload", args.workload);
  w.field("seed", static_cast<std::int64_t>(args.seed));
  w.field("seconds", args.seconds);
  w.field("traced", args.trace);
  w.field("git_sha", env("PERFBENCH_GIT_SHA", "unknown"));
  w.field("dirty", env("PERFBENCH_GIT_DIRTY", "unknown"));
  w.field("source_digest", env("PERFBENCH_SOURCE_DIGEST", "unknown"));
  w.field("nproc",
          static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  w.field("compiler", PERFBENCH_COMPILER);
  w.field("build_type", PERFBENCH_BUILD_TYPE);
  w.field("cxx_flags", flags);
  // Sanitizer or unoptimized builds are not comparable with Release runs.
  w.field("comparable_build", !sanitized && optimized);
  w.end_object();
  return w.str();
}

std::string spans_path(const Args& args) {
  return args.out_dir + "/spans/" + args.workload + "-seed" +
         std::to_string(args.seed) + ".json";
}

void add_served_share(RunResult& result) {
  const double attempted = static_cast<double>(std::max<std::int64_t>(result.attempted, 1));
  result.add("served_share",
             static_cast<double>(result.attempted - result.failed) / attempted,
             "ratio");
  result.note("failed_share",
              std::to_string(static_cast<double>(result.failed) / attempted) +
                  " (" + std::to_string(result.failed) + " of " +
                  std::to_string(result.attempted) +
                  " attempted: failed, refused/overloaded, degraded or "
                  "transport error)");
}

void emit(const Args& args, const RunResult& result) {
  const std::string stamp = stamp_json(args);
  std::printf("# stamp %s\n", stamp.c_str());
  for (const auto& [key, text] : result.notes) {
    std::printf("# %s: %s\n", key.c_str(), text.c_str());
  }
  for (const std::string& e : result.errors) {
    std::printf("# CHECK FAILED: %s\n", e.c_str());
  }

  // The final line is rendered by hand: every value keeps all its digits
  // (shortest round-trip form), which JsonWriter's 6-digit doubles do not.
  std::string line = "{\"correct\":";
  line += result.correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(result.attempted);
  line += ",\"failed\":" + std::to_string(result.failed);
  line += ",\"metrics\":{";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("# %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (i > 0) line += ',';
    line += ideobf::json_quote(m.name) + ":{\"value\":" + number(m.value) +
            ",\"unit\":" + ideobf::json_quote(m.unit) + "}";
  }
  line += "}}";

  std::string record = "{\"stamp\":" + stamp + ",\"notes\":{";
  for (std::size_t i = 0; i < result.notes.size(); ++i) {
    if (i > 0) record += ',';
    record += ideobf::json_quote(result.notes[i].first) + ":" +
              ideobf::json_quote(result.notes[i].second);
  }
  record += "},\"result\":" + line + "}\n";
  write_file(args.out_dir + "/results/" + args.workload + "-seed" +
                 std::to_string(args.seed) + (args.trace ? "-traced" : "") +
                 ".json",
             record);

  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
