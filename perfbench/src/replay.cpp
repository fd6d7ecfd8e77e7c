#include "replay.h"

#include <algorithm>
#include <functional>
#include <memory>

#include "core/deobfuscator.h"
#include "core/multilayer.h"
#include "core/recovery.h"
#include "core/reformat.h"
#include "core/rename.h"
#include "core/token_pass.h"
#include "psast/parse_cache.h"
#include "psast/parser.h"
#include "pslang/lexer.h"
#include "server/protocol.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

namespace {

/// The phase spans the replay records; their self times partition the part
/// of `Engine::handle` the replay repeats.
constexpr const char* kPhaseSpans[] = {
    "pslang.tokenize", "psast.parse",   "core.token_pass", "core.recovery",
    "core.multilayer", "core.rename",   "core.reformat"};

struct ReplayCounts {
  std::uint64_t tokens = 0;
  ideobf::RecoveryStats recovery;
};

/// One paper-pipeline pass over `script` through the public phase
/// functions, each call inside its own span, with the engine's per-step
/// syntax check (a phase whose output does not parse is rolled back).
/// Multilayer payloads recurse through token pass + recovery, one level
/// deeper, so their spans nest under core.multilayer.
std::string replay_layers(SpanRecorder& rec, std::uint32_t id,
                          const std::string& script,
                          const ideobf::RecoveryOptions& ro,
                          ReplayCounts& counts, int depth) {
  const auto parses = [&](const std::string& text) {
    SpanRecorder::Scope s(rec, "psast.parse", id);
    return ps::try_parse(text);
  };
  std::string cur = script;
  {
    std::string next;
    {
      SpanRecorder::Scope s(rec, "core.token_pass", id);
      ideobf::TokenPassStats ts;
      next = ideobf::token_pass(cur, &ts);
    }
    if (next != cur && parses(next) != nullptr) cur = std::move(next);
  }
  const ps::ParsedScript parsed = parses(cur);
  if (parsed == nullptr) return cur;
  {
    std::string next;
    {
      SpanRecorder::Scope s(rec, "core.recovery", id);
      ideobf::RecoveryStats rs;
      next = ideobf::recovery_pass(cur, parsed, ro, &rs);
      counts.recovery.memo_hits += rs.memo_hits;
      counts.recovery.memo_misses += rs.memo_misses;
    }
    cur = std::move(next);  // recovery_pass syntax-checks its own output
  }
  if (depth >= 8) return cur;
  const ps::ParsedScript reparsed = parses(cur);
  if (reparsed == nullptr) return cur;
  SpanRecorder::Scope s(rec, "core.multilayer", id);
  ideobf::MultilayerStats ms;
  return ideobf::unwrap_layers(
      cur, *reparsed,
      [&](std::string_view payload) {
        return replay_layers(rec, id, std::string(payload), ro, counts,
                             depth + 1);
      },
      &ms);
}

void replay_script(SpanRecorder& rec, std::uint32_t id,
                   const std::string& script, const ideobf::RecoveryOptions& ro,
                   ReplayCounts& counts) {
  SpanRecorder::Scope root(rec, "replay", id);
  {
    SpanRecorder::Scope s(rec, "pslang.tokenize", id);
    bool ok = true;
    counts.tokens += ps::tokenize_lenient(script, ok).size();
  }
  std::string out = replay_layers(rec, id, script, ro, counts, 0);
  {
    std::string next;
    {
      SpanRecorder::Scope s(rec, "core.rename", id);
      ideobf::RenameStats rs;
      next = ideobf::rename_pass(out, &rs);
    }
    if (next != out) out = std::move(next);
  }
  SpanRecorder::Scope s(rec, "core.reformat", id);
  (void)ideobf::reformat_pass(out);
}

/// Seconds to replay `scripts` with the recorder on or off (a fresh memo
/// each time, so both see the same cold work).
double replay_seconds(const std::vector<const Item*>& scripts, bool traced) {
  SpanRecorder rec(traced);
  ideobf::RecoveryMemo memo;
  ideobf::RecoveryOptions ro;
  ro.memo = &memo;
  ReplayCounts counts;
  const double t0 = now_seconds();
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    replay_script(rec, static_cast<std::uint32_t>(i), scripts[i]->source, ro,
                  counts);
  }
  return now_seconds() - t0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

double codec_us(const std::vector<ideobf::Request>& requests,
                const std::vector<std::string>& reply_lines) {
  const std::size_t n = std::min(requests.size(), reply_lines.size());
  if (n == 0) return 0.0;
  std::string error;
  std::size_t sink = 0;
  const double t0 = now_seconds();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string line = ideobf::server::render_request_line(requests[i]);
    ideobf::server::WireRequest wire;
    (void)ideobf::server::parse_request_line(line, wire, error);
    ideobf::ServeReply reply;
    (void)ideobf::server::parse_reply_line(reply_lines[i], reply, error);
    sink += ideobf::server::render_response_line(reply.response).size();
  }
  const double seconds = now_seconds() - t0;
  return sink > 0 ? seconds * 1e6 / static_cast<double>(n) : 0.0;
}

std::vector<double> engine_layer_metrics(const std::vector<Item>& items, unsigned threads,
                          double budget_seconds, const std::string& spans_path,
                          RunResult& result) {
  std::vector<double> handle_ms;
  // --- Counts from a cold batch, where the work happens ------------------
  {
    auto cache = std::make_shared<ps::ParseCache>();
    ideobf::Options options;
    options.threads = threads;
    options.shared_parse_cache = cache;
    const ideobf::Engine engine(options);
    std::vector<ideobf::Request> requests(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      requests[i].source = items[i].source;
      requests[i].language = items[i].language;
    }
    const std::uint64_t parses0 = ps::parse_call_count();
    const double t0 = now_seconds();
    const std::vector<ideobf::Response> responses =
        engine.handle_batch(requests);
    const double wall = now_seconds() - t0;
    const double parses =
        static_cast<double>(ps::parse_call_count() - parses0);
    const ps::ParseCacheStats cs = cache->stats();

    double busy = 0.0;
    double hits = 0, misses = 0, failed = 0, folded = 0, vm = 0, walked = 0;
    for (const ideobf::Response& r : responses) {
      busy += r.seconds;
      handle_ms.push_back(r.seconds * 1000.0);
      const ideobf::RecoveryStats& rs = r.report.recovery;
      hits += rs.memo_hits;
      misses += rs.memo_misses;
      failed += rs.pieces_failed;
      folded += rs.pieces_folded;
      vm += rs.bytecode_execs;
      walked += rs.treewalk_fallbacks;
    }
    const double n = static_cast<double>(items.size());
    result.add("psast.parses_per_script", ratio(parses, n), "count");
    result.add("psast.parse_cache_hit_rate",
               ratio(static_cast<double>(cs.hits),
                     static_cast<double>(cs.hits + cs.misses)),
               "ratio");
    result.add("psast.parse_cache_evictions",
               static_cast<double>(cs.evictions), "count");
    result.add("core.recovery.memo_hit_rate", ratio(hits, hits + misses),
               "ratio");
    result.add("core.recovery.pieces_per_script", ratio(hits + misses, n),
               "count");
    result.add("core.recovery.pieces_failed_share",
               ratio(failed, hits + misses), "ratio");
    result.add("psinterp.fold_share", ratio(folded, misses), "ratio");
    result.add("psinterp.vm_share", ratio(vm, misses), "ratio");
    result.add("psinterp.treewalk_share", ratio(walked, misses), "ratio");
    result.add("core.batch.parallel_efficiency",
               ratio(busy, wall * std::max(threads, 1u)), "ratio");
    result.note("layers.batch",
                std::to_string(items.size()) + " scripts, " +
                    std::to_string(threads) + " threads, " +
                    std::to_string(static_cast<long long>(hits + misses)) +
                    " piece lookups, " +
                    std::to_string(static_cast<long long>(misses)) +
                    " piece executions");
  }

  // --- Span-recorded replay of the PowerShell scripts --------------------
  std::vector<const Item*> ps_items;
  for (const Item& item : items) {
    if (item.language.empty()) ps_items.push_back(&item);
  }
  SpanRecorder rec;
  ideobf::RecoveryMemo memo;
  ideobf::RecoveryOptions ro;
  ro.memo = &memo;
  ReplayCounts counts;
  const ideobf::Engine engine{ideobf::Options{}};
  std::size_t replayed = 0;
  const double deadline = now_seconds() + budget_seconds * 0.7;
  for (std::size_t i = 0; i < ps_items.size(); ++i) {
    if (replayed >= 50 && now_seconds() > deadline) break;
    const auto id = static_cast<std::uint32_t>(i);
    replay_script(rec, id, ps_items[i]->source, ro, counts);
    ideobf::Request request;
    request.source = ps_items[i]->source;
    {
      SpanRecorder::Scope s(rec, "engine.handle", id);
      (void)engine.handle(request);
    }
    replayed++;
  }

  // The workload's JavaScript scripts through the JS front-end, or the
  // data/js goldens when it submits none.
  {
    std::vector<Item> js;
    for (const Item& item : items) {
      if (item.language == "javascript") js.push_back(item);
    }
    if (js.empty()) {
      for (Item& g : load_goldens()) {
        if (g.language == "javascript") js.push_back(std::move(g));
      }
    }
    for (int round = 0; round < 20; ++round) {
      for (std::size_t i = 0; i < js.size(); ++i) {
        ideobf::Request request;
        request.source = js[i].source;
        request.language = "javascript";
        SpanRecorder::Scope s(rec, "jslang.script",
                              static_cast<std::uint32_t>(i));
        (void)engine.handle(request);
      }
    }
  }

  const std::map<std::string, SpanTotals> totals = rec.totals();
  const auto self_of = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
  };
  const auto total_of = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  const auto count_of = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const double scripts = static_cast<double>(std::max<std::size_t>(replayed, 1));
  double accounted = 0.0;
  for (const char* name : kPhaseSpans) accounted += self_of(name);

  result.add("pslang.tokenize_us", self_of("pslang.tokenize") * 1e6 / scripts,
             "us");
  result.add("pslang.tokens_per_s",
             ratio(static_cast<double>(counts.tokens),
                   self_of("pslang.tokenize")),
             "1/s");
  result.add("psast.parse_us",
             ratio(self_of("psast.parse") * 1e6, count_of("psast.parse")),
             "us");
  result.add("core.token_pass_us", self_of("core.token_pass") * 1e6 / scripts,
             "us");
  result.add("core.recovery_us", self_of("core.recovery") * 1e6 / scripts,
             "us");
  result.add("core.multilayer_us", self_of("core.multilayer") * 1e6 / scripts,
             "us");
  result.add("core.rename_us", self_of("core.rename") * 1e6 / scripts, "us");
  result.add("core.reformat_us", self_of("core.reformat") * 1e6 / scripts,
             "us");
  result.add("psinterp.piece_us",
             ratio(self_of("core.recovery") * 1e6,
                   static_cast<double>(counts.recovery.memo_misses)),
             "us");
  result.add("bench.accounted_share",
             ratio(accounted, total_of("engine.handle")), "ratio");
  result.add("jslang.script_us",
             ratio(total_of("jslang.script") * 1e6, count_of("jslang.script")),
             "us");
  result.note("layers.replay",
              std::to_string(replayed) + " PowerShell scripts replayed, " +
                  std::to_string(rec.spans().size()) + " spans; " +
                  "psinterp.piece_us is recovery self time per executed "
                  "piece (" +
                  std::to_string(counts.recovery.memo_misses) + ")");

  // Tracing overhead: the same replay with the recorder on and off,
  // alternated, over the first scripts.
  {
    const std::vector<const Item*> sample(
        ps_items.begin(),
        ps_items.begin() +
            static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                ps_items.size(), 150)));
    std::vector<double> ratios;
    for (int round = 0; round < 3; ++round) {
      const double off = replay_seconds(sample, false);
      const double on = replay_seconds(sample, true);
      ratios.push_back(on / off - 1.0);
    }
    result.add("bench.trace_overhead", median(ratios), "ratio");
  }

  // --- Front-end sniffing -------------------------------------------------
  {
    const ideobf::InvokeDeobfuscator deob;
    std::size_t sink = 0;
    const double t0 = now_seconds();
    for (const Item& item : items) {
      sink += deob.resolve_language("auto", item.source).size();
    }
    const double seconds = now_seconds() - t0;
    result.add("frontends.sniff_us",
               sink > 0 ? seconds * 1e6 / static_cast<double>(items.size())
                        : 0.0,
               "us");
  }
  write_file(spans_path, rec.chrome_trace());
  return handle_ms;
}

}  // namespace perfbench
