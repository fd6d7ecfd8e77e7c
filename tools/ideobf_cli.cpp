// ideobf — command-line front end over the library, mirroring the usage of
// the paper's released PowerShell module.
//
//   ideobf deobf [file|-]            deobfuscate a script (stdin with -)
//   ideobf batch <dir>               deobfuscate every *.ps1 / *.js in a dir
//
// Both accept --language <name|auto>: route to a registered front-end
// ("powershell", "javascript") or sniff per script with "auto"; batch
// otherwise picks the front-end from each file's extension.
//   ideobf serve --socket PATH       persistent deobfuscation daemon (NDJSON)
//   ideobf score [file|-]            obfuscation score + detected techniques
//   ideobf iocs [file|-]             deobfuscate then extract key information
//   ideobf behavior [file|-]         run in the sandbox, print side effects
//   ideobf obfuscate <technique> [file|-]   apply one Table II technique
//   ideobf corpus <n> <dir>          write n generated samples to a directory
//   ideobf explain [file|-]          deobfuscate and print the change trace
//   ideobf ast [file|-]              dump the PowerShell AST
//   ideobf techniques                list technique names and levels
//
// Observability flags (deobf and batch):
//   --stats            pipeline statistics (cache/memo hit rates, phase times)
//   --metrics[=FILE]   Prometheus-style metrics to FILE (stderr without =FILE)
//   --trace-out=FILE   Chrome trace_event JSON (chrome://tracing, Perfetto)
//
// Serve observability flags:
//   --trace-out FILE       arm the trace recorder (serves the `trace` op,
//                          writes the Chrome trace to FILE at shutdown)
//   --trace                fleet mode: per-worker traces in state_dir
//   --metrics-snapshot F   dump a mergeable metrics snapshot to F (scrape/HUP)
//   --flight-recorder F    mirror the in-memory flight ring to F (postmortems)
//   --log-level LEVEL      structured NDJSON logs (debug|info|warn|error|off)

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "analysis/json_writer.h"
#include "analysis/keyinfo.h"
#include "analysis/scorer.h"
#include "corpus/corpus.h"
#include "core/fault.h"
#include "ideobf/api.h"
#include "ideobf/client.h"
#include "server/server.h"
#include "server/supervisor.h"
#include "obfuscator/obfuscator.h"
#include "pslang/alias_table.h"
#include "psast/dump.h"
#include "sandbox/sandbox.h"
#include "telemetry/build_info.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/exposition.h"
#include "telemetry/log.h"
#include "telemetry/telemetry.h"

namespace {

std::string read_input(const std::string& path) {
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "ideobf: cannot open " << path << "\n";
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int usage() {
  std::cerr
      << "usage: ideobf <deobf|batch|serve|explain|score|iocs|behavior|obfuscate|corpus|ast|techniques>"
         " [args]\n";
  return 2;
}

/// The CLI's telemetry envelope: `--metrics[=FILE]` and `--trace-out=FILE`
/// turn the subsystem on for the command's duration; `finish()` writes the
/// Chrome trace and the Prometheus exposition. `--stats` alone also enables
/// telemetry so the phase breakdown and hit rates have data to report.
struct TelemetrySession {
  bool want_metrics = false;
  std::string metrics_path;  ///< empty writes the exposition to stderr
  std::string trace_path;    ///< empty disables trace collection
  bool stats = false;
  std::unique_ptr<ideobf::telemetry::TraceRecorder> recorder;

  /// True when `flag` was one of ours (and was consumed).
  bool consume(const std::string& flag) {
    if (flag == "--stats") {
      stats = true;
      return true;
    }
    if (flag == "--metrics") {
      want_metrics = true;
      return true;
    }
    if (flag.rfind("--metrics=", 0) == 0) {
      want_metrics = true;
      metrics_path = flag.substr(10);
      return true;
    }
    if (flag.rfind("--trace-out=", 0) == 0) {
      trace_path = flag.substr(12);
      return true;
    }
    return false;
  }

  [[nodiscard]] bool active() const {
    return want_metrics || stats || !trace_path.empty();
  }

  void start() {
    if (!active()) return;
    ideobf::telemetry::Telemetry::metrics().reset();
    if (!trace_path.empty()) {
      recorder = std::make_unique<ideobf::telemetry::TraceRecorder>();
      ideobf::telemetry::Telemetry::set_trace_recorder(recorder.get());
    }
    ideobf::telemetry::Telemetry::enable();
  }

  void finish() {
    if (!active()) return;
    ideobf::telemetry::Telemetry::disable();
    ideobf::telemetry::Telemetry::set_trace_recorder(nullptr);
    if (recorder != nullptr) {
      std::ofstream out(trace_path, std::ios::binary);
      if (!out) {
        std::cerr << "ideobf: cannot write " << trace_path << "\n";
      } else {
        out << recorder->render();
        std::cerr << "# trace: " << recorder->event_count() << " events -> "
                  << trace_path
                  << (recorder->truncated() ? " (truncated)" : "") << "\n";
      }
    }
    if (want_metrics) {
      // Identify the build in every exposition, CLI included, so one-shot
      // scrapes join against fleet series the same way serve-mode ones do.
      ideobf::telemetry::register_build_info();
      ideobf::telemetry::update_uptime_gauge();
      const std::string text = ideobf::telemetry::render_prometheus(
          ideobf::telemetry::Telemetry::metrics());
      if (metrics_path.empty()) {
        std::cerr << text;
      } else {
        std::ofstream out(metrics_path, std::ios::binary);
        if (!out) std::cerr << "ideobf: cannot write " << metrics_path << "\n";
        else out << text;
      }
    }
  }
};

/// `--stats` phase-time table for one profile (self = phase minus nested).
void print_profile(std::ostream& os,
                   const ideobf::telemetry::PipelineProfile& profile) {
  os << "# phase breakdown (count, self ms, total ms):\n";
  for (std::size_t i = 0; i < ideobf::telemetry::kPhaseCount; ++i) {
    const auto phase = static_cast<ideobf::telemetry::Phase>(i);
    const auto& stat = profile.stat(phase);
    if (stat.count == 0) continue;
    os << "#   " << ideobf::telemetry::phase_name(phase) << ": " << stat.count
       << ", " << static_cast<double>(stat.self_ns) / 1e6 << ", "
       << static_cast<double>(stat.total_ns) / 1e6 << "\n";
  }
}

/// Cache effectiveness summary from the registry counters (reset by
/// tel.start(), so they cover exactly this command's work). The per-report
/// memo numbers are preferred when the caller has them.
void print_cache_stats(std::ostream& os, int memo_hits, int memo_misses) {
  auto& reg = ideobf::telemetry::registry();
  const std::uint64_t hits =
      reg.counter("ideobf_parse_cache_hit_total").value();
  const std::uint64_t misses =
      reg.counter("ideobf_parse_cache_miss_total").value();
  const std::uint64_t bypasses =
      reg.counter("ideobf_parse_cache_bypass_total").value();
  const std::uint64_t lookups = hits + misses + bypasses;
  os << "# parse-cache: hits=" << hits << " misses=" << misses
     << " bypasses=" << bypasses << " hit-rate="
     << (lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups) << "\n";
  const int memo_lookups = memo_hits + memo_misses;
  os << "# recovery-memo: hits=" << memo_hits << " misses=" << memo_misses
     << " hit-rate="
     << (memo_lookups == 0 ? 0.0
                           : static_cast<double>(memo_hits) / memo_lookups)
     << "\n";
}

int cmd_deobf(const std::string& path, bool trace_functions,
              double deadline_seconds, const std::string& language,
              TelemetrySession& tel) {
  ideobf::Options opts;
  opts.recovery.trace_functions = trace_functions;
  opts.limits.deadline_seconds = deadline_seconds;
  ideobf::Engine engine(opts);
  ideobf::Request request;
  request.source = read_input(path);
  request.language = language;
  tel.start();
  const ideobf::Response response = engine.handle(request);
  const ideobf::DeobfuscationReport& report = response.report;
  std::cout << response.result;
  std::cerr << "# ticks=" << report.token.ticks_removed
            << " aliases=" << report.token.aliases_expanded
            << " case=" << report.token.case_normalized
            << " pieces=" << report.recovery.pieces_recovered
            << " vars=" << report.recovery.variables_traced
            << " layers=" << report.multilayer.layers_unwrapped
            << " failure=" << to_string(response.failure)
            << " rung=" << report.degradation_rung
            << " language=" << response.language << "\n";
  if (tel.stats) {
    print_cache_stats(std::cerr, report.recovery.memo_hits,
                      report.recovery.memo_misses);
    print_profile(std::cerr, report.profile);
  }
  tel.finish();
  return 0;
}

int cmd_batch(const std::string& dir, unsigned threads,
              double deadline_seconds, bool as_json,
              const std::string& language, TelemetrySession& tel) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && (entry.path().extension() == ".ps1" ||
                                    entry.path().extension() == ".js")) {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    std::cerr << "ideobf: cannot read directory " << dir << "\n";
    return 2;
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::cerr << "ideobf: no .ps1 or .js files in " << dir << "\n";
    return 2;
  }
  std::vector<ideobf::Request> requests(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    requests[i].source = read_input(paths[i]);
    requests[i].id = paths[i];
    // Explicit --language wins; otherwise the extension picks the front-end
    // (".js" routes to the JavaScript front-end, ".ps1" keeps the default).
    if (!language.empty()) {
      requests[i].language = language;
    } else if (fs::path(paths[i]).extension() == ".js") {
      requests[i].language = "javascript";
    }
  }

  ideobf::Options options;
  options.threads = threads;
  options.limits.deadline_seconds = deadline_seconds;
  ideobf::Engine engine(options);
  tel.start();
  const auto start = std::chrono::steady_clock::now();
  const std::vector<ideobf::Response> responses = engine.handle_batch(requests);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  int changed = 0;
  int failed = 0;
  int degraded = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const std::string out_path = paths[i] + ".deobf";
    std::ofstream(out_path, std::ios::binary) << responses[i].result;
    if (responses[i].result != requests[i].source) ++changed;
    if (!responses[i].ok) ++failed;
    if (responses[i].ok && responses[i].report.degradation_rung > 0) {
      ++degraded;
    }
  }

  if (as_json) {
    ideobf::JsonWriter w;
    w.begin_object();
    w.field("scripts", static_cast<std::int64_t>(requests.size()));
    w.field("changed", changed);
    w.field("failed", failed);
    w.field("degraded", degraded);
    w.field("wall_seconds", wall_seconds);
    w.begin_array("items");
    for (std::size_t i = 0; i < responses.size(); ++i) {
      const ideobf::Response& r = responses[i];
      w.begin_object();
      w.field("file", paths[i]);
      w.field("ok", r.ok);
      w.field("changed", r.result != requests[i].source);
      w.field("seconds", r.seconds);
      w.field("rung", r.report.degradation_rung);
      w.field("failure", std::string(to_string(r.failure)));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::cout << w.str() << "\n";
  } else {
    std::cout << "batch: " << requests.size() << " scripts, " << changed
              << " changed, " << failed << " failed, " << degraded
              << " degraded, " << wall_seconds << "s\n";
  }
  if (tel.stats) {
    // Batch memo stats come from the registry (per-item reports are not
    // retained); the counters were reset by tel.start().
    auto& reg = ideobf::telemetry::registry();
    const int memo_hits = static_cast<int>(
        reg.counter("ideobf_recovery_memo_hit_total").value());
    const int memo_misses = static_cast<int>(
        reg.counter("ideobf_recovery_memo_miss_total").value());
    print_cache_stats(std::cerr, memo_hits, memo_misses);
    ideobf::telemetry::PipelineProfile profile;
    for (const ideobf::Response& r : responses) profile.merge(r.report.profile);
    print_profile(std::cerr, profile);
  }
  tel.finish();
  return 0;
}

int cmd_score(const std::string& path, bool as_json) {
  const std::string script = read_input(path);
  const ideobf::ObfuscationFindings findings = ideobf::detect_obfuscation(script);
  if (as_json) {
    ideobf::JsonWriter w;
    w.begin_object();
    w.field("score", findings.score());
    w.begin_array("techniques");
    for (ideobf::Technique t : findings.techniques) {
      w.begin_object();
      w.field("name", std::string(to_string(t)));
      w.field("level", ideobf::technique_level(t));
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::cout << w.str() << "\n";
    return 0;
  }
  std::cout << "score: " << findings.score() << "\n";
  for (ideobf::Technique t : findings.techniques) {
    std::cout << "  L" << ideobf::technique_level(t) << " " << to_string(t)
              << "\n";
  }
  return 0;
}

int cmd_iocs(const std::string& path, bool as_json) {
  ideobf::Engine engine;
  ideobf::Request request;
  request.source = read_input(path);
  const ideobf::KeyInfo info =
      ideobf::extract_key_info(engine.handle(request).result);
  if (as_json) {
    ideobf::JsonWriter w;
    w.begin_object();
    w.begin_array("urls");
    for (const auto& u : info.urls) w.value(u);
    w.end_array();
    w.begin_array("ips");
    for (const auto& i : info.ips) w.value(i);
    w.end_array();
    w.begin_array("ps1_files");
    for (const auto& p : info.ps1_files) w.value(p);
    w.end_array();
    w.field("powershell_invocations", info.powershell_commands);
    w.end_object();
    std::cout << w.str() << "\n";
    return 0;
  }
  for (const auto& u : info.urls) std::cout << "url\t" << u << "\n";
  for (const auto& i : info.ips) std::cout << "ip\t" << i << "\n";
  for (const auto& p : info.ps1_files) std::cout << "ps1\t" << p << "\n";
  std::cout << "powershell-invocations\t" << info.powershell_commands << "\n";
  return 0;
}

int cmd_behavior(const std::string& path) {
  ideobf::Sandbox sandbox;
  const ideobf::BehaviorProfile profile = sandbox.run(read_input(path));
  std::cout << "executed: " << (profile.executed_ok ? "ok" : "error")
            << (profile.error.empty() ? "" : " (" + profile.error + ")") << "\n";
  for (const auto& n : profile.network) std::cout << "net\t" << n << "\n";
  for (const auto& p : profile.processes) std::cout << "proc\t" << p << "\n";
  for (const auto& f : profile.files) std::cout << "file\t" << f << "\n";
  for (const auto& h : profile.host_output) std::cout << "host\t" << h << "\n";
  std::cout << "simulated-seconds\t" << profile.simulated_seconds << "\n";
  return 0;
}

int cmd_obfuscate(const std::string& name, const std::string& path) {
  for (ideobf::Technique t : ideobf::all_techniques()) {
    if (ps::iequals(to_string(t), name)) {
      ideobf::Obfuscator obf(std::random_device{}());
      std::cout << obf.apply(t, read_input(path));
      return 0;
    }
  }
  std::cerr << "ideobf: unknown technique '" << name
            << "' (see `ideobf techniques`)\n";
  return 2;
}

int cmd_corpus(int n, const std::string& dir) {
  ideobf::CorpusGenerator gen(2021);
  for (int i = 0; i < n; ++i) {
    const ideobf::Sample s = gen.generate();
    const std::string base = dir + "/sample_" + std::to_string(i);
    std::ofstream(base + ".obf.ps1") << s.obfuscated;
    std::ofstream(base + ".clean.ps1") << s.original;
    std::ofstream meta(base + ".meta");
    meta << "family: " << s.family << "\nlayers: " << s.layers
         << "\ntechniques:";
    for (ideobf::Technique t : s.techniques) meta << " " << to_string(t);
    meta << "\n";
  }
  std::cout << "wrote " << n << " samples to " << dir << "\n";
  return 0;
}

/// One warm-path round trip against the freshly started server: ping, a
/// deobfuscation whose output is predictable (tick removal + alias/case
/// normalization need no sandbox), and a metrics scrape that must show the
/// request it just served.
int serve_self_check(const std::string& socket_path) {
  ideobf::ServeClient client = ideobf::ServeClient::connect_unix(socket_path);
  if (!client.ping()) {
    std::cerr << "ideobf serve: self-check ping failed\n";
    return 1;
  }
  ideobf::Request request;
  request.source = "wr`ite-ho`st 'self-check'";
  request.id = "self-check";
  const ideobf::ServeReply reply = client.call(request);
  if (reply.status != "ok" || reply.response.id != "self-check" ||
      reply.response.result.find("Write-Host") == std::string::npos) {
    std::cerr << "ideobf serve: self-check deobfuscation failed (status="
              << reply.status << ", result=" << reply.response.result << ")\n";
    return 1;
  }
  const std::string metrics = client.metrics();
  if (metrics.find("ideobf_server_requests_total") == std::string::npos) {
    std::cerr << "ideobf serve: self-check metrics scrape failed\n";
    return 1;
  }
  client.shutdown_server();
  std::cout << "self-check ok\n";
  return 0;
}

/// Supervisor (fleet) mode: bind once, fork+exec workers, restart on crash.
int cmd_serve_fleet(ideobf::server::FleetConfig cfg) {
  ideobf::server::Supervisor sup(std::move(cfg));
  try {
    sup.start();
  } catch (const std::exception& e) {
    std::cerr << "ideobf serve: " << e.what() << "\n";
    return 2;
  }
  sup.install_signal_handlers();
  std::cerr << "ideobf serve: fleet supervisor up (status: "
            << sup.status_path() << ")\n";
  return sup.run();
}

int cmd_serve(int argc, char** argv) {
  ideobf::server::ServerConfig cfg;
  ideobf::server::FleetConfig fleet;
  bool fleet_mode = false;
  bool self_check = false;
  std::string fault_spec;
  std::string log_level;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--socket" && i + 1 < argc) {
      cfg.unix_socket_path = argv[++i];
    } else if (a == "--tcp") {
      cfg.tcp = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        cfg.tcp_port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
      }
    } else if (a == "--threads" && i + 1 < argc) {
      cfg.threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (a == "--max-queue" && i + 1 < argc) {
      cfg.max_queue = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (a == "--deadline-ms" && i + 1 < argc) {
      cfg.default_deadline_ms =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (a == "--drain-grace-seconds" && i + 1 < argc) {
      cfg.drain_grace_seconds = std::atof(argv[++i]);
      fleet.drain_grace_seconds = cfg.drain_grace_seconds;
    } else if (a == "--send-timeout-seconds" && i + 1 < argc) {
      cfg.send_timeout_seconds = std::atof(argv[++i]);
    } else if (a == "--idle-timeout-seconds" && i + 1 < argc) {
      cfg.idle_timeout_seconds = std::atof(argv[++i]);
    } else if (a == "--outbuf-high-water-bytes" && i + 1 < argc) {
      cfg.outbuf_high_water_bytes =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (a == "--allow-tcp-shutdown") {
      cfg.allow_tcp_shutdown = true;
    } else if (a == "--self-check") {
      self_check = true;
    } else if (a == "--rate" && i + 1 < argc) {
      cfg.admission_rate = std::atof(argv[++i]);
    } else if (a == "--burst" && i + 1 < argc) {
      cfg.admission_burst = std::atof(argv[++i]);
    } else if (a == "--config" && i + 1 < argc) {
      cfg.reload_config_path = argv[++i];
    } else if (a == "--fault" && i + 1 < argc) {
      fault_spec = argv[++i];
    } else if (a == "--cache-path" && i + 1 < argc) {
      cfg.cache_path = argv[++i];
    } else if (a == "--cache-slots" && i + 1 < argc) {
      cfg.cache_slots = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (a == "--cache-slot-bytes" && i + 1 < argc) {
      cfg.cache_slot_bytes = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (a == "--journal" && i + 1 < argc) {
      cfg.crash_journal_path = argv[++i];
    } else if (a == "--quarantine" && i + 1 < argc) {
      cfg.quarantine_path = argv[++i];
    } else if (a == "--worker-index" && i + 1 < argc) {
      cfg.worker_index = std::atoi(argv[++i]);
    } else if (a == "--inherited-unix-fd" && i + 1 < argc) {
      cfg.inherited_unix_fd = std::atoi(argv[++i]);
    } else if (a == "--inherited-tcp-fd" && i + 1 < argc) {
      cfg.inherited_tcp_fd = std::atoi(argv[++i]);
      cfg.tcp = true;
    } else if (a == "--fleet" && i + 1 < argc) {
      fleet_mode = true;
      fleet.workers = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (a == "--state-dir" && i + 1 < argc) {
      fleet.state_dir = argv[++i];
    } else if (a == "--no-cache") {
      fleet.cache = false;
    } else if (a == "--backoff-initial-seconds" && i + 1 < argc) {
      fleet.backoff_initial_seconds = std::atof(argv[++i]);
    } else if (a == "--backoff-max-seconds" && i + 1 < argc) {
      fleet.backoff_max_seconds = std::atof(argv[++i]);
    } else if (a == "--stable-uptime-seconds" && i + 1 < argc) {
      fleet.stable_uptime_seconds = std::atof(argv[++i]);
    } else if (a == "--circuit-max-restarts" && i + 1 < argc) {
      fleet.circuit_max_restarts = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (a == "--circuit-window-seconds" && i + 1 < argc) {
      fleet.circuit_window_seconds = std::atof(argv[++i]);
    } else if (a == "--circuit-reset-seconds" && i + 1 < argc) {
      fleet.circuit_reset_seconds = std::atof(argv[++i]);
    } else if (a == "--quarantine-after" && i + 1 < argc) {
      fleet.quarantine_after = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (a == "--exec-path" && i + 1 < argc) {
      fleet.exec_path = argv[++i];
    } else if (a == "--trace-out" && i + 1 < argc) {
      cfg.trace_out_path = argv[++i];
    } else if (a == "--trace") {
      fleet.trace = true;
    } else if (a == "--metrics-snapshot" && i + 1 < argc) {
      cfg.metrics_snapshot_path = argv[++i];
    } else if (a == "--flight-recorder" && i + 1 < argc) {
      cfg.flight_recorder_path = argv[++i];
    } else if (a == "--log-level" && i + 1 < argc) {
      log_level = argv[++i];
    } else {
      std::cerr << "ideobf serve: unknown flag '" << a << "'\n";
      return 2;
    }
  }
  if (cfg.unix_socket_path.empty()) {
    cfg.unix_socket_path =
        "/tmp/ideobf-serve-" + std::to_string(::getpid()) + ".sock";
  }

  if (fleet_mode) {
    fleet.unix_socket_path = cfg.unix_socket_path;
    fleet.tcp = cfg.tcp;
    fleet.tcp_port = cfg.tcp_port;
    fleet.threads_per_worker = cfg.threads > 0 ? cfg.threads : 2;
    fleet.max_queue = cfg.max_queue;
    fleet.default_deadline_ms = cfg.default_deadline_ms;
    fleet.send_timeout_seconds = cfg.send_timeout_seconds;
    fleet.idle_timeout_seconds = cfg.idle_timeout_seconds;
    fleet.outbuf_high_water_bytes = cfg.outbuf_high_water_bytes;
    fleet.admission_rate = cfg.admission_rate;
    fleet.admission_burst = cfg.admission_burst;
    fleet.reload_config_path = cfg.reload_config_path;
    fleet.cache_slots = cfg.cache_slots;
    fleet.cache_slot_bytes = cfg.cache_slot_bytes;
    fleet.fault_spec = fault_spec;
    fleet.log_level = log_level;
    return cmd_serve_fleet(std::move(fleet));
  }

  // Standalone serve (and supervised workers, which receive --log-level on
  // their command line) apply the structured-log threshold before start()
  // so setup failures are already captured.
  if (!log_level.empty()) {
    ideobf::telemetry::LogLevel level;
    if (!ideobf::telemetry::parse_log_level(log_level, level)) {
      std::cerr << "ideobf serve: unknown --log-level '" << log_level
                << "' (debug|info|warn|error|off)\n";
      return 2;
    }
    ideobf::telemetry::set_log_level(level);
  }

  // Worker (or standalone) process: arm the process-wide fault injector if a
  // crash-drill spec was given. The spec's match text keeps the blast radius
  // to requests that carry the trigger string.
  if (!fault_spec.empty()) {
    ideobf::FaultSite site{};
    ideobf::FaultSpec spec{};
    std::string error;
    if (!ideobf::parse_fault_cli_spec(fault_spec, site, spec, error)) {
      std::cerr << "ideobf serve: bad --fault spec: " << error << "\n";
      return 2;
    }
    ideobf::FaultInjector::process().arm(site, spec);
    cfg.server_fault = &ideobf::FaultInjector::process();
  }

  const std::string socket_path = cfg.unix_socket_path;
  const bool tcp = cfg.tcp;

  // A resident service always records: the metrics op is part of the
  // protocol, so the registry must have data.
  ideobf::telemetry::Telemetry::enable();
  ideobf::server::Server server(std::move(cfg));
  try {
    server.start();
  } catch (const std::exception& e) {
    std::cerr << "ideobf serve: " << e.what() << "\n";
    return 2;
  }
  server.install_signal_handlers();
  if (self_check) {
    int rc = 1;
    try {
      rc = serve_self_check(socket_path);
    } catch (const std::exception& e) {
      std::cerr << "ideobf serve: self-check failed: " << e.what() << "\n";
    }
    server.stop();
    return rc;
  }
  std::cerr << "ideobf serve: listening on " << socket_path;
  if (tcp) std::cerr << " and 127.0.0.1:" << server.tcp_port();
  std::cerr << "\n";
  server.wait();
  return 0;
}

int cmd_techniques() {
  for (ideobf::Technique t : ideobf::all_techniques()) {
    std::cout << "L" << ideobf::technique_level(t) << "\t" << to_string(t)
              << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  auto arg = [&](int i, const char* fallback = "-") {
    return argc > i ? std::string(argv[i]) : std::string(fallback);
  };

  if (cmd == "deobf") {
    bool trace_fn = false;
    double deadline_seconds = 0.0;
    std::string path = "-";
    std::string language;
    TelemetrySession tel;
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--trace-functions") trace_fn = true;
      else if (a == "--deadline-ms" && i + 1 < argc)
        deadline_seconds = std::atof(argv[++i]) / 1000.0;
      else if (a == "--language" && i + 1 < argc)
        language = argv[++i];
      else if (!tel.consume(a)) path = a;
    }
    return cmd_deobf(path, trace_fn, deadline_seconds, language, tel);
  }
  if (cmd == "batch") {
    unsigned threads = 0;
    double deadline_seconds = 0.0;
    bool as_json = false;
    std::string dir;
    std::string language;
    TelemetrySession tel;
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--threads" && i + 1 < argc)
        threads = static_cast<unsigned>(std::atoi(argv[++i]));
      else if (a == "--deadline-ms" && i + 1 < argc)
        deadline_seconds = std::atof(argv[++i]) / 1000.0;
      else if (a == "--language" && i + 1 < argc)
        language = argv[++i];
      else if (a == "--json") as_json = true;
      else if (!tel.consume(a)) dir = a;
    }
    if (dir.empty()) return usage();
    return cmd_batch(dir, threads, deadline_seconds, as_json, language, tel);
  }
  if (cmd == "serve") return cmd_serve(argc, argv);
  bool as_json = false;
  std::string pos_arg = "-";
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") as_json = true;
    else pos_arg = argv[i];
  }
  if (cmd == "score") return cmd_score(pos_arg, as_json);
  if (cmd == "iocs") return cmd_iocs(pos_arg, as_json);
  if (cmd == "behavior") return cmd_behavior(arg(2));
  if (cmd == "obfuscate") {
    if (argc < 3) return usage();
    return cmd_obfuscate(argv[2], arg(3));
  }
  if (cmd == "corpus") {
    if (argc < 4) return usage();
    return cmd_corpus(std::atoi(argv[2]), argv[3]);
  }
  if (cmd == "explain") {
    ideobf::Engine engine;
    ideobf::Request request;
    request.source = read_input(arg(2));
    request.trace = true;
    const ideobf::Response response = engine.handle(request);
    std::cout << ideobf::render_trace(response.report.trace, 60,
                                      response.report.trace_dropped)
              << "---\n"
              << response.result;
    return 0;
  }
  if (cmd == "ast") {
    std::cout << ps::dump_script(read_input(arg(2)));
    return 0;
  }
  if (cmd == "techniques") return cmd_techniques();
  return usage();
}
