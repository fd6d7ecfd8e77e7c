// Fleet-serving tests: the shared content-addressed response cache, the
// admission-control primitives, the worker-side quarantine/cache/reload
// paths (in-process Server), and the supervised multi-process fleet driven
// through the real CLI binary (crash containment, restart, quarantine of
// repeat-killer scripts, a real kill -9).

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.h"
#include "frontends/registry.h"
#include "ideobf/api.h"
#include "ideobf/client.h"
#include "server/admission.h"
#include "server/json.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/shared_cache.h"
#include "server/supervisor.h"

using ideobf::FailureKind;
using ideobf::Request;
using ideobf::ServeClient;
using ideobf::ServeReply;
using ideobf::server::append_cached_response_line;
using ideobf::server::CacheKey;
using ideobf::server::CacheLookup;
using ideobf::server::FairBoundedQueue;
using ideobf::server::make_cache_key;
using ideobf::server::options_fingerprint;
using ideobf::server::RequestHasher;
using ideobf::server::Server;
using ideobf::server::ServerConfig;
using ideobf::server::SharedResponseCache;
using ideobf::server::SourceHashes;
using ideobf::server::TokenBucket;

namespace {

int g_temp_counter = 0;

std::string temp_path(const std::string& stem) {
  // The pid alone repeats across runs, and nothing removes these files: the
  // clock stamp keeps a run from opening a cache file or reading a flight
  // record that an earlier process with the same pid left behind.
  static const std::string run =
      std::to_string(::getpid()) + "-" +
      std::to_string(
          std::chrono::steady_clock::now().time_since_epoch().count());
  return "/tmp/ideobf-fleet-" + run + "-" + std::to_string(g_temp_counter++) +
         "-" + stem;
}

std::string temp_dir(const std::string& stem) {
  std::string dir = temp_path(stem);
  ::mkdir(dir.c_str(), 0700);
  return dir;
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf, 16);
}

std::string script_hash_hex(const std::string& source) {
  return hash_hex(ideobf::server::fnv1a64(source, 0));
}

Request deobf_request(const std::string& source, const std::string& id) {
  Request request;
  request.source = source;
  request.id = id;
  return request;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// ---------------------------------------------------------------------------
// SharedResponseCache
// ---------------------------------------------------------------------------

std::unique_ptr<SharedResponseCache> open_cache(const std::string& path,
                                                std::uint32_t slots = 64,
                                                std::uint32_t slot_bytes =
                                                    1024) {
  SharedResponseCache::Config cfg;
  cfg.path = path;
  cfg.slot_count = slots;
  cfg.slot_bytes = slot_bytes;
  std::string error;
  auto cache = SharedResponseCache::open(cfg, error);
  EXPECT_NE(cache, nullptr) << error;
  return cache;
}

TEST(SharedCache, StoreLookupRoundTrip) {
  auto cache = open_cache(temp_path("cache.bin"));
  const CacheKey key = make_cache_key("Write-Host 'hi'", "opts-v1");
  ASSERT_TRUE(key.valid());

  std::string out;
  EXPECT_EQ(cache->lookup(key, out), CacheLookup::Miss);
  EXPECT_TRUE(cache->store(key, "{\"id\":\"\",\"status\":\"ok\"}"));
  ASSERT_EQ(cache->lookup(key, out), CacheLookup::Hit);
  EXPECT_EQ(out, "{\"id\":\"\",\"status\":\"ok\"}");

  const auto stats = cache->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
}

TEST(SharedCache, DistinctOptionsFingerprintsDoNotAlias) {
  const CacheKey a = make_cache_key("same source", "opts-a");
  const CacheKey b = make_cache_key("same source", "opts-b");
  EXPECT_TRUE(a.lo != b.lo || a.hi != b.hi);
}

TEST(SharedCache, SecondHandleOnSameFileSeesStores) {
  const std::string path = temp_path("cache.bin");
  auto writer = open_cache(path);
  auto reader = open_cache(path);
  const CacheKey key = make_cache_key("shared entry", "fp");
  ASSERT_TRUE(writer->store(key, "payload-from-writer"));
  std::string out;
  ASSERT_EQ(reader->lookup(key, out), CacheLookup::Hit);
  EXPECT_EQ(out, "payload-from-writer");
}

TEST(SharedCache, CorruptEntryDetectedAndServedAsMiss) {
  auto cache = open_cache(temp_path("cache.bin"));
  const CacheKey key = make_cache_key("to be corrupted", "fp");
  ASSERT_TRUE(cache->store(key, "pristine payload bytes"));
  ASSERT_TRUE(cache->corrupt_entry(key));

  std::string out;
  EXPECT_EQ(cache->lookup(key, out), CacheLookup::Corrupt);
  EXPECT_EQ(cache->stats().corrupt, 1u);

  // The slot is reusable: a fresh store repairs it.
  ASSERT_TRUE(cache->store(key, "repaired"));
  ASSERT_EQ(cache->lookup(key, out), CacheLookup::Hit);
  EXPECT_EQ(out, "repaired");
}

TEST(SharedCache, OversizedPayloadIsSkippedNotTruncated) {
  auto cache = open_cache(temp_path("cache.bin"), 8, 256);
  const CacheKey key = make_cache_key("big", "fp");
  const std::string big(cache->max_payload_bytes() + 1, 'x');
  EXPECT_FALSE(cache->store(key, big));
  EXPECT_GE(cache->stats().store_skips, 1u);
  std::string out;
  EXPECT_EQ(cache->lookup(key, out), CacheLookup::Miss);
}

TEST(SharedCache, EvictionKeepsRecentEntriesReachable) {
  // Far more keys than slots: every store must succeed (oldest evicted),
  // and the most recent key must still be readable.
  auto cache = open_cache(temp_path("cache.bin"), 8, 512);
  CacheKey last{};
  std::string last_payload;
  for (int i = 0; i < 100; ++i) {
    last = make_cache_key("script #" + std::to_string(i), "fp");
    last_payload = "payload #" + std::to_string(i);
    EXPECT_TRUE(cache->store(last, last_payload));
  }
  std::string out;
  ASSERT_EQ(cache->lookup(last, out), CacheLookup::Hit);
  EXPECT_EQ(out, last_payload);
}

TEST(SharedCache, RejectsGeometryMismatch) {
  const std::string path = temp_path("cache.bin");
  { auto cache = open_cache(path, 64, 1024); }
  SharedResponseCache::Config cfg;
  cfg.path = path;
  cfg.slot_count = 32;  // different geometry than the existing file
  cfg.slot_bytes = 1024;
  std::string error;
  EXPECT_EQ(SharedResponseCache::open(cfg, error), nullptr);
  EXPECT_FALSE(error.empty());
}

TEST(SharedCache, SpliceRestoresIdAndMarksCached) {
  const std::string cached = "{\"id\":\"\",\"status\":\"ok\",\"result\":\"x\"}";
  std::string out;
  ASSERT_TRUE(append_cached_response_line(cached, "req-42", out));
  EXPECT_EQ(out,
            "{\"id\":\"req-42\",\"cached\":true,\"status\":\"ok\","
            "\"result\":\"x\"}");
  // With a server-assigned request id the splice threads it in right after
  // the correlation id, so even cache hits stay joinable against traces.
  std::string joined;
  ASSERT_TRUE(append_cached_response_line(cached, "req-42", joined, "w0-7"));
  EXPECT_EQ(joined,
            "{\"id\":\"req-42\",\"request_id\":\"w0-7\",\"cached\":true,"
            "\"status\":\"ok\",\"result\":\"x\"}");
  // A payload without the empty-id prefix is refused (treated as a miss)
  // and appends nothing.
  std::string refused = "kept";
  EXPECT_FALSE(
      append_cached_response_line("{\"status\":\"ok\"}", "id", refused));
  EXPECT_EQ(refused, "kept");
}

// ---------------------------------------------------------------------------
// One-pass request hashing (RequestHasher) against the reference key
// ---------------------------------------------------------------------------

/// Every byte value, repeated to 64 KiB: the largest source the golden grid
/// hashes.
std::string every_byte_source() {
  std::string out(64u << 10, '\0');
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<char>((i * 131u + 7u) & 0xFFu);
  }
  return out;
}

void expect_matches_reference(const RequestHasher& hasher,
                              const ideobf::Options& options,
                              const std::string& source,
                              std::uint64_t deadline_ms,
                              std::string_view language) {
  const std::string_view resolved =
      ideobf::resolve_language(language, source);
  const SourceHashes got = hasher.hash(source, deadline_ms, resolved);
  const CacheKey want = make_cache_key(
      source, options_fingerprint(options, deadline_ms, hasher.blocklist(),
                                  resolved));
  EXPECT_EQ(got.script, ideobf::server::fnv1a64(source, 0));
  EXPECT_EQ(got.key.lo, want.lo);
  EXPECT_EQ(got.key.hi, want.hi);
}

TEST(SharedCacheKey, OnePassMatchesReference) {
  const std::vector<std::string> sources = {
      "", "x", "Write-Host 'h\xC3\xA9llo \xE6\x97\xA5\xE6\x9C\xAC \xF0\x9F\x99\x82'",
      every_byte_source()};
  // A request's own deadline, a server default, and none.
  const std::vector<std::uint64_t> deadlines = {2500, 1000, 0};
  const std::vector<std::string> languages = {"", "auto", "javascript"};
  const std::vector<std::vector<std::string>> blocklists = {
      {}, {"Start-Sleep", "Invoke-WebRequest"}};
  ideobf::Options tuned;
  tuned.rename = false;
  tuned.limits.deadline_seconds = 2.5;
  tuned.limits.watchdog_factor = 1.5;
  tuned.recovery.trace_functions = true;
  for (const ideobf::Options& options : {ideobf::Options{}, tuned}) {
    for (const auto& blocklist : blocklists) {
      const RequestHasher hasher(options, blocklist);
      for (const std::string& source : sources) {
        for (const std::uint64_t deadline_ms : deadlines) {
          for (const std::string& language : languages) {
            SCOPED_TRACE("source bytes " + std::to_string(source.size()) +
                         ", deadline " + std::to_string(deadline_ms) +
                         ", language '" + language + "', blocklist " +
                         std::to_string(blocklist.size()));
            expect_matches_reference(hasher, options, source, deadline_ms,
                                     language);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Admission primitives
// ---------------------------------------------------------------------------

TEST(Admission, TokenBucketStartsFullThenDepletes) {
  TokenBucket bucket;
  // rate 1/s, burst 2: a fresh bucket allows the burst, then refuses.
  EXPECT_TRUE(bucket.try_take(1.0, 2.0, 0.0));
  EXPECT_TRUE(bucket.try_take(1.0, 2.0, 0.0));
  EXPECT_FALSE(bucket.try_take(1.0, 2.0, 0.0));
  // One second later one token has refilled.
  EXPECT_TRUE(bucket.try_take(1.0, 2.0, 1.0));
  EXPECT_FALSE(bucket.try_take(1.0, 2.0, 1.0));
}

TEST(Admission, TokenBucketRetryAfterNamesRefillTime) {
  TokenBucket bucket;
  EXPECT_TRUE(bucket.try_take(2.0, 1.0, 0.0));
  const std::uint64_t wait = bucket.retry_after_ms(2.0, 1.0, 0.0);
  // One token at 2/s is 500ms away (+1ms rounding guard).
  EXPECT_GE(wait, 500u);
  EXPECT_LE(wait, 502u);
  EXPECT_EQ(bucket.retry_after_ms(2.0, 1.0, 1.0), 0u);
}

TEST(Admission, TokenBucketHotReloadedRateAppliesImmediately) {
  TokenBucket bucket;
  EXPECT_TRUE(bucket.try_take(1.0, 1.0, 0.0));
  EXPECT_FALSE(bucket.try_take(1.0, 1.0, 0.1));
  // The caller passes the live rate each time: a reload to 100/s refills
  // this existing bucket without any reset handshake.
  EXPECT_TRUE(bucket.try_take(100.0, 1.0, 0.2));
}

TEST(Admission, FairQueueRoundRobinAcrossClients) {
  FairBoundedQueue<int> q(16);
  EXPECT_TRUE(q.try_push(1, 10));
  EXPECT_TRUE(q.try_push(1, 11));
  EXPECT_TRUE(q.try_push(1, 12));
  EXPECT_TRUE(q.try_push(2, 20));

  std::vector<int> order;
  int item = 0;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.pop(item));
    order.push_back(item);
  }
  // Client 2's single item does not wait behind client 1's backlog, and
  // client 1's own items stay FIFO.
  EXPECT_EQ(order, (std::vector<int>{10, 20, 11, 12}));
}

TEST(Admission, FairQueueCapRefusesAndCloseDrains) {
  FairBoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1, 1));
  EXPECT_TRUE(q.try_push(2, 2));
  EXPECT_FALSE(q.try_push(3, 3));  // full: the "overloaded" signal
  q.close();
  EXPECT_FALSE(q.try_push(1, 4));  // closed refuses new work
  int item = 0;
  EXPECT_TRUE(q.pop(item));  // but everything accepted still drains
  EXPECT_TRUE(q.pop(item));
  EXPECT_FALSE(q.pop(item));
}

TEST(FleetFault, CliSpecParses) {
  ideobf::FaultSite site{};
  ideobf::FaultSpec spec{};
  std::string error;
  ASSERT_TRUE(ideobf::parse_fault_cli_spec(
      "worker-abort:abort:skip=2:fires=1:match=KILLME", site, spec, error))
      << error;
  EXPECT_EQ(site, ideobf::FaultSite::WorkerAbort);
  EXPECT_EQ(spec.action, ideobf::FaultAction::Abort);
  EXPECT_EQ(spec.skip_first, 2);
  EXPECT_EQ(spec.max_fires, 1);
  EXPECT_EQ(spec.match_text, "KILLME");

  EXPECT_FALSE(ideobf::parse_fault_cli_spec("nonsense:abort", site, spec,
                                            error));
  EXPECT_FALSE(ideobf::parse_fault_cli_spec("worker-abort:frobnicate", site,
                                            spec, error));
  EXPECT_FALSE(ideobf::parse_fault_cli_spec("worker-abort", site, spec,
                                            error));
}

// ---------------------------------------------------------------------------
// In-process server: admission, quarantine, cache, probes, SIGHUP reload
// ---------------------------------------------------------------------------

ServerConfig base_config(const std::string& socket_path) {
  ServerConfig cfg;
  cfg.unix_socket_path = socket_path;
  cfg.threads = 2;
  return cfg;
}

TEST(AdmissionServer, FirehoseRefusedWithRetryAfter) {
  const std::string sock = temp_path("admission.sock");
  ServerConfig cfg = base_config(sock);
  cfg.admission_rate = 0.001;  // ~one token per 1000s: only the burst lands
  cfg.admission_burst = 1.0;
  Server server(std::move(cfg));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  const ServeReply first = client.call(deobf_request("Write-Host 1", "a"));
  EXPECT_EQ(first.status, "ok");
  const ServeReply second = client.call(deobf_request("Write-Host 2", "b"));
  EXPECT_EQ(second.status, "overloaded");
  EXPECT_GT(second.retry_after_ms, 0u);

  EXPECT_GE(server.stats().admission_rejected_total, 1u);
  server.stop();
}

TEST(FleetServer, QuarantinedHashRefusedWithoutExecution) {
  const std::string sock = temp_path("quarantine.sock");
  const std::string qpath = temp_path("quarantine");
  const std::string killer = "Write-Host 'repeat offender'";
  { std::ofstream(qpath) << script_hash_hex(killer) << "\n"; }

  ServerConfig cfg = base_config(sock);
  cfg.quarantine_path = qpath;
  Server server(std::move(cfg));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  const ServeReply reply = client.call(deobf_request(killer, "q1"));
  EXPECT_EQ(reply.status, "failed");
  EXPECT_EQ(reply.response.failure, FailureKind::Quarantined);
  // Refused before the engine: the input is passed through untouched.
  EXPECT_EQ(reply.response.result, killer);
  EXPECT_NE(reply.response.failure_detail.find("quarantined"),
            std::string::npos);

  // Other scripts are unaffected.
  const ServeReply ok = client.call(deobf_request("Write-Host 'fine'", "q2"));
  EXPECT_EQ(ok.status, "ok");

  const auto stats = server.stats();
  EXPECT_EQ(stats.quarantined_total, 1u);
  server.stop();
}

TEST(FleetServer, SharedCacheHitMarksCachedAndMatches) {
  const std::string sock = temp_path("cachehit.sock");
  ServerConfig cfg = base_config(sock);
  cfg.cache_path = temp_path("cache.bin");
  Server server(std::move(cfg));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  const std::string source = "wr`ite-ho`st 'cache me'";
  const ServeReply cold = client.call(deobf_request(source, "c1"));
  ASSERT_EQ(cold.status, "ok");
  EXPECT_FALSE(cold.cached);

  const ServeReply warm = client.call(deobf_request(source, "c2"));
  ASSERT_EQ(warm.status, "ok");
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(warm.response.id, "c2");  // the id is spliced per-request
  EXPECT_EQ(warm.response.result, cold.response.result);

  const auto stats = server.stats();
  EXPECT_GE(stats.cache_hits_total, 1u);
  EXPECT_GE(stats.cache_stores_total, 1u);
  server.stop();
}

TEST(FleetServer, CorruptSharedCacheEntryDetectedAndRecomputed) {
  const std::string sock = temp_path("cachecorrupt.sock");
  const std::string source = "Write-Host 'poisoned entry'";
  ideobf::FaultInjector fault;
  ideobf::FaultSpec spec;
  spec.action = ideobf::FaultAction::Corrupt;
  spec.match_text = "poisoned entry";
  fault.arm(ideobf::FaultSite::CacheCorrupt, spec);

  ServerConfig cfg = base_config(sock);
  cfg.cache_path = temp_path("cache.bin");
  cfg.server_fault = &fault;
  Server server(std::move(cfg));
  server.start();

  ServeClient client = ServeClient::connect_unix(sock);
  // First call stores the entry, then the fault corrupts its payload.
  const ServeReply cold = client.call(deobf_request(source, "p1"));
  ASSERT_EQ(cold.status, "ok");

  // Second call: the checksum catches the corruption — a miss and a fresh
  // pipeline run, never a forged response.
  const ServeReply again = client.call(deobf_request(source, "p2"));
  ASSERT_EQ(again.status, "ok");
  EXPECT_FALSE(again.cached);
  EXPECT_EQ(again.response.result, cold.response.result);

  EXPECT_GE(server.stats().cache_corrupt_total, 1u);
  server.stop();
}

TEST(FleetServer, ReadyAndLiveProbes) {
  const std::string sock = temp_path("probes.sock");
  Server server(base_config(sock));
  server.start();
  ServeClient client = ServeClient::connect_unix(sock);
  EXPECT_TRUE(client.ready());
  EXPECT_TRUE(client.live());
  server.stop();
}

TEST(FleetServer, SighupReloadsQuarantineAndLimits) {
  const std::string sock = temp_path("reload.sock");
  const std::string qpath = temp_path("quarantine");
  const std::string killer = "Write-Host 'becomes quarantined'";

  ServerConfig cfg = base_config(sock);
  cfg.quarantine_path = qpath;  // does not exist yet
  Server server(std::move(cfg));
  server.start();
  server.install_signal_handlers();

  ServeClient client = ServeClient::connect_unix(sock);
  EXPECT_EQ(client.call(deobf_request(killer, "r1")).status, "ok");

  { std::ofstream(qpath) << script_hash_hex(killer) << "\n"; }
  ::raise(SIGHUP);

  // The reload is asynchronous (self-pipe -> accept loop); poll for it.
  bool quarantined = false;
  for (int i = 0; i < 100 && !quarantined; ++i) {
    const ServeReply reply =
        client.call(deobf_request(killer, "r" + std::to_string(i + 2)));
    quarantined = reply.response.failure == FailureKind::Quarantined;
    if (!quarantined) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  EXPECT_TRUE(quarantined);
  EXPECT_GE(server.stats().reloads_total, 1u);
  server.stop();
}

TEST(FleetServer, SighupReloadOfDefaultDeadlineToZeroLiftsIt) {
  // Every piece sleeps 0.3 s: past a 100 ms deadline's watchdog limit, but
  // harmless without a deadline.
  const std::string sock = temp_path("deadline-reload.sock");
  const std::string config = temp_path("reload.json");
  { std::ofstream(config) << "{}\n"; }
  ideobf::FaultInjector fault;
  ideobf::FaultSpec spec;
  spec.action = ideobf::FaultAction::Delay;
  spec.delay_seconds = 0.3;
  fault.arm(ideobf::FaultSite::PieceExecution, spec);

  ServerConfig cfg = base_config(sock);
  cfg.default_deadline_ms = 100;
  cfg.reload_config_path = config;
  cfg.options.fault_injector = &fault;
  Server server(std::move(cfg));
  server.start();
  server.install_signal_handlers();

  ServeClient client = ServeClient::connect_unix(sock);
  const std::string source = "Write-Host ('slow' + 'piece')";
  const ServeReply before = client.call(deobf_request(source, "before"));
  EXPECT_NE(before.status, "ok");
  EXPECT_GE(before.response.report.degradation_rung, 1);

  { std::ofstream(config) << "{\"default_deadline_ms\": 0}\n"; }
  ::raise(SIGHUP);
  // The reload is asynchronous (self-pipe -> event loop); wait for it.
  for (int i = 0; i < 200 && server.stats().reloads_total == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(server.stats().reloads_total, 1u);
  const ServeReply after = client.call(deobf_request(source, "after"));
  EXPECT_EQ(after.status, "ok");
  EXPECT_EQ(after.response.report.degradation_rung, 0);
  EXPECT_EQ(after.response.failure, FailureKind::None);
  server.stop();
  ::unlink(config.c_str());
}

TEST(SharedCacheKey, ServedKeysMatchReferenceAcrossSighupReload) {
  // The keys a live server stores under must be the reference keys, with
  // the deadline taken from the request or from the server default, and
  // with the blocklist a SIGHUP reload installs.
  const std::string sock = temp_path("keys.sock");
  const std::string cache_path = temp_path("cache.bin");
  const std::string qpath = temp_path("quarantine");
  const std::string config = temp_path("reload.json");
  { std::ofstream(config) << "{}\n"; }

  ServerConfig cfg = base_config(sock);
  cfg.cache_path = cache_path;
  cfg.quarantine_path = qpath;
  cfg.reload_config_path = config;
  cfg.default_deadline_ms = 60000;
  const ideobf::Options options = cfg.options;
  const std::uint32_t slots = cfg.cache_slots;
  const std::uint32_t slot_bytes = cfg.cache_slot_bytes;
  Server server(std::move(cfg));
  server.start();
  server.install_signal_handlers();
  auto reader = open_cache(cache_path, slots, slot_bytes);
  ASSERT_NE(reader, nullptr);

  struct Case {
    std::string source;
    std::uint64_t deadline_ms;  // 0: the server default applies
    std::string language;
  };
  const std::vector<Case> cases = {
      {"Write-Host ('served' + 'key')", 0, ""},
      {"Write-Host ('served' + 'key')", 45000, ""},
      {"Write-Host ('auto' + 'key')", 0, "auto"},
      {"var s = 'java' + 'script';", 45000, "javascript"},
  };
  ServeClient client = ServeClient::connect_unix(sock);
  int seq = 0;
  const auto expect_stored_under_reference =
      [&](const Case& c, const std::vector<std::string>& blocklist) {
        Request request = deobf_request(c.source, "k" + std::to_string(seq++));
        request.deadline_ms = c.deadline_ms;
        request.language = c.language;
        const ServeReply reply = client.call(request);
        ASSERT_EQ(reply.status, "ok");
        EXPECT_FALSE(reply.cached);
        const std::uint64_t effective =
            c.deadline_ms != 0 ? c.deadline_ms : 60000;
        const CacheKey want = make_cache_key(
            c.source,
            options_fingerprint(options, effective, blocklist,
                                ideobf::resolve_language(c.language, c.source)));
        std::string payload;
        EXPECT_EQ(reader->lookup(want, payload), CacheLookup::Hit)
            << c.source << " / " << c.language << " / " << effective;
        EXPECT_TRUE(payload.starts_with("{\"id\":\"\","));
      };
  for (const Case& c : cases) expect_stored_under_reference(c, {});

  const std::vector<std::string> reloaded = {"Start-Sleep",
                                             "Invoke-WebRequest"};
  const std::string killer = "Write-Host 'quarantined by hash'";
  { std::ofstream(config) << R"({"extra_blocklist": ["Start-Sleep", "Invoke-WebRequest"]})" "\n"; }
  { std::ofstream(qpath) << script_hash_hex(killer) << "\n"; }
  ::raise(SIGHUP);
  for (int i = 0; i < 200 && server.stats().reloads_total == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(server.stats().reloads_total, 1u);

  // The reloaded blocklist is part of every key now: the same requests miss
  // and are stored under the new reference keys.
  for (const Case& c : cases) expect_stored_under_reference(c, reloaded);
  const ServeReply refused = client.call(deobf_request(killer, "killer"));
  EXPECT_EQ(refused.response.failure, FailureKind::Quarantined);
  server.stop();
  ::unlink(config.c_str());
}

// ---------------------------------------------------------------------------
// Supervised fleet through the real CLI binary
// ---------------------------------------------------------------------------

#ifdef IDEOBF_CLI_PATH

/// Spawns `ideobf serve --fleet ...` and tears it down (SIGTERM, then
/// SIGKILL) on destruction.
struct FleetProcess {
  pid_t pid = -1;
  std::string socket_path;
  std::string state_dir;

  FleetProcess(std::vector<std::string> extra_args, unsigned workers) {
    socket_path = temp_path("fleet.sock");
    state_dir = temp_dir("fleet-state");
    std::vector<std::string> args = {
        IDEOBF_CLI_PATH, "serve",
        "--socket",      socket_path,
        "--fleet",       std::to_string(workers),
        "--state-dir",   state_dir,
        "--threads",     "1",
        "--backoff-initial-seconds", "0.05",
        "--backoff-max-seconds",     "0.5",
    };
    for (std::string& a : extra_args) args.push_back(std::move(a));

    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid = ::fork();
    if (pid == 0) {
      // Quiet the fleet's stderr chatter in test logs.
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }

  ~FleetProcess() {
    if (pid <= 0) return;
    ::kill(pid, SIGTERM);
    for (int i = 0; i < 300; ++i) {
      if (::waitpid(pid, nullptr, WNOHANG) == pid) return;
      ::usleep(20 * 1000);
    }
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }

  /// Waits until a worker accepts and answers a ping.
  [[nodiscard]] bool wait_ready(double timeout_seconds = 20.0) const {
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::duration<double>(timeout_seconds);
    while (std::chrono::steady_clock::now() < give_up) {
      try {
        ServeClient client = ServeClient::connect_unix(socket_path);
        if (client.ready()) return true;
      } catch (const std::exception&) {
      }
      ::usleep(50 * 1000);
    }
    return false;
  }

  [[nodiscard]] std::string status_json() const {
    return read_file(state_dir + "/fleet.json");
  }
};

std::int64_t status_int(const std::string& json, const std::string& key) {
  auto value = ideobf::server::parse_json(json);
  if (!value) return -1;
  const auto* field = value->find(key);
  if (field == nullptr) return -1;
  return static_cast<std::int64_t>(field->as_double(-1));
}

/// Every worker pid listed in fleet.json.
std::vector<pid_t> status_pids(const std::string& json) {
  std::vector<pid_t> pids;
  auto value = ideobf::server::parse_json(json);
  const auto* workers = value ? value->find("workers") : nullptr;
  const auto* arr = workers == nullptr ? nullptr : workers->as_array();
  if (arr == nullptr) return pids;
  for (const auto& worker : *arr) {
    const auto* pid = worker.find("pid");
    if (pid != nullptr && pid->as_double(-1) > 0) {
      pids.push_back(static_cast<pid_t>(pid->as_double(-1)));
    }
  }
  return pids;
}

/// First worker pid listed in fleet.json.
pid_t status_first_pid(const std::string& json) {
  const std::vector<pid_t> pids = status_pids(json);
  return pids.empty() ? -1 : pids.front();
}

/// Whether `pid` names a process that has not exited (a zombie waiting for
/// its reaper counts as exited).
bool process_running(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  const std::size_t paren = stat.rfind(')');
  if (paren == std::string::npos || paren + 2 >= stat.size()) return false;
  const char state = stat[paren + 2];
  return state != 'Z' && state != 'X';
}

TEST(SupervisorFleet, WorkersDieWithTheirSupervisor) {
  FleetProcess fleet({}, /*workers=*/2);
  ASSERT_GE(fleet.pid, 0);
  ASSERT_TRUE(fleet.wait_ready());
  std::vector<pid_t> workers;
  for (int i = 0; i < 400 && workers.size() < 2; ++i) {
    workers = status_pids(fleet.status_json());
    if (workers.size() < 2) ::usleep(25 * 1000);
  }
  ASSERT_EQ(workers.size(), 2u);

  // No drain, no signal forwarding: the supervisor just vanishes.
  ASSERT_EQ(::kill(fleet.pid, SIGKILL), 0);
  ASSERT_EQ(::waitpid(fleet.pid, nullptr, 0), fleet.pid);
  fleet.pid = -1;

  for (const pid_t worker : workers) {
    bool running = true;
    for (int i = 0; i < 200 && running; ++i) {
      running = process_running(worker);
      if (running) ::usleep(25 * 1000);
    }
    EXPECT_FALSE(running) << "worker " << worker << " outlived its supervisor";
    if (running) ::kill(worker, SIGKILL);  // leave nothing behind
  }
}

TEST(SupervisorFleet, CrashContainedAndRepeatKillerQuarantined) {
  // Every request whose script carries KILLME aborts its worker at the
  // dispatch site; everything else is innocent traffic.
  FleetProcess fleet({"--fault", "worker-abort:abort:match=KILLME",
                      "--quarantine-after", "2", "--no-cache"},
                     /*workers=*/2);
  ASSERT_GE(fleet.pid, 0);
  ASSERT_TRUE(fleet.wait_ready());

  const std::string killer = "Write-Host 'KILLME'";
  {
    ServeClient client = ServeClient::connect_unix(fleet.socket_path);
    EXPECT_EQ(client.call(deobf_request("Write-Host 'ok'", "i1")).status,
              "ok");
  }

  // The killer always gets a terminal reply — worker-crash from the retry
  // synthesizer or quarantined once the supervisor has seen enough crashes.
  {
    ServeClient client = ServeClient::connect_unix(fleet.socket_path);
    const ServeReply reply =
        client.call_retrying(deobf_request(killer, "k1"), 8);
    EXPECT_EQ(reply.status, "failed");
    EXPECT_TRUE(reply.response.failure == FailureKind::WorkerCrash ||
                reply.response.failure == FailureKind::Quarantined)
        << to_string(reply.response.failure);
  }

  // After at most 2 crashes the hash is quarantined: a fresh client gets
  // the terminal quarantined reply without any further worker death.
  bool quarantined = false;
  for (int i = 0; i < 200 && !quarantined; ++i) {
    ServeClient client = ServeClient::connect_unix(fleet.socket_path);
    const ServeReply reply = client.call_retrying(
        deobf_request(killer, "k" + std::to_string(i + 2)), 8);
    quarantined = reply.response.failure == FailureKind::Quarantined;
    if (!quarantined) ::usleep(50 * 1000);
  }
  EXPECT_TRUE(quarantined);

  // Innocent traffic still flows after all that.
  {
    ServeClient client = ServeClient::connect_unix(fleet.socket_path);
    const ServeReply reply =
        client.call_retrying(deobf_request("Write-Host 'still up'", "i2"), 8);
    EXPECT_EQ(reply.status, "ok");
  }

  const std::string status = fleet.status_json();
  EXPECT_GE(status_int(status, "crashes_total"), 2);
  EXPECT_GE(status_int(status, "quarantine_count"), 1);

  // The quarantine file survives for the next fleet generation.
  const std::string qfile = read_file(fleet.state_dir + "/quarantine");
  EXPECT_NE(qfile.find(script_hash_hex(killer)), std::string::npos);
}

TEST(SupervisorFleet, RestartsWorkerAfterKillDashNine) {
  FleetProcess fleet({}, /*workers=*/1);
  ASSERT_GE(fleet.pid, 0);
  ASSERT_TRUE(fleet.wait_ready());

  const pid_t victim = status_first_pid(fleet.status_json());
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // The supervisor notices, backs off briefly, and respawns the slot.
  pid_t replacement = -1;
  for (int i = 0; i < 400; ++i) {
    replacement = status_first_pid(fleet.status_json());
    if (replacement > 0 && replacement != victim) break;
    ::usleep(25 * 1000);
  }
  ASSERT_GT(replacement, 0);
  EXPECT_NE(replacement, victim);

  ServeClient client = ServeClient::connect_unix(fleet.socket_path);
  const ServeReply reply =
      client.call_retrying(deobf_request("Write-Host 'back'", "rk1"), 8);
  EXPECT_EQ(reply.status, "ok");
}

TEST(SupervisorFleet, SharedCacheServesAcrossWorkers) {
  FleetProcess fleet({}, /*workers=*/2);
  ASSERT_GE(fleet.pid, 0);
  ASSERT_TRUE(fleet.wait_ready());

  const std::string source = "wr`ite-ho`st 'fleet cache'";
  // Prime through one connection, then hammer through fresh connections:
  // whichever worker accepts, the shared mmap region answers.
  {
    ServeClient client = ServeClient::connect_unix(fleet.socket_path);
    ASSERT_EQ(client.call(deobf_request(source, "w0")).status, "ok");
  }
  int cached_seen = 0;
  for (int i = 0; i < 8; ++i) {
    ServeClient client = ServeClient::connect_unix(fleet.socket_path);
    const ServeReply reply =
        client.call(deobf_request(source, "w" + std::to_string(i + 1)));
    ASSERT_EQ(reply.status, "ok");
    if (reply.cached) cached_seen++;
  }
  // With 2 workers and 8 fresh connections, hits must appear on both
  // workers' accept shares; anything less than a majority means the region
  // is not actually shared.
  EXPECT_GE(cached_seen, 5);
}

TEST(SupervisorFleet, FleetScopeMetricsMergeAcrossWorkers) {
  FleetProcess fleet({}, /*workers=*/2);
  ASSERT_GE(fleet.pid, 0);
  ASSERT_TRUE(fleet.wait_ready());

  // Serve some traffic so both workers have counters worth merging.
  for (int i = 0; i < 6; ++i) {
    ServeClient client = ServeClient::connect_unix(fleet.socket_path);
    const ServeReply reply = client.call(
        deobf_request("Write-Host 'merge me'", "fm" + std::to_string(i)));
    ASSERT_EQ(reply.status, "ok");
  }
  // SIGHUP fans out to every worker and makes each dump its metrics
  // snapshot, so a fleet-scope query right after sees all siblings fresh.
  ASSERT_EQ(::kill(fleet.pid, SIGHUP), 0);

  // Whichever worker answers merges its own live registry with the
  // siblings' snapshot files; poll until both worker labels are present.
  bool merged = false;
  std::string exposition;
  int fleet_workers = 0;
  for (int i = 0; i < 400 && !merged; ++i) {
    ServeClient client = ServeClient::connect_unix(fleet.socket_path);
    const ideobf::MetricsReply m = client.metrics_reply(/*fleet_scope=*/true);
    exposition = m.exposition;
    fleet_workers = m.fleet_workers;
    merged = exposition.find("worker=\"0\"") != std::string::npos &&
             exposition.find("worker=\"1\"") != std::string::npos;
    if (!merged) ::usleep(25 * 1000);
  }
  EXPECT_TRUE(merged) << exposition.substr(0, 2000);
  EXPECT_GE(fleet_workers, 2);
  // The fleet-wide sum appears under the original (worker-less) labels.
  EXPECT_NE(exposition.find("ideobf_server_requests_total"),
            std::string::npos);
}

TEST(SupervisorFleet, KillDashNineYieldsPostmortemNamingInflightRequests) {
  // A request whose script carries STALLME parks inside dispatch for far
  // longer than this test runs — guaranteed to still be in flight when the
  // worker is killed.
  FleetProcess fleet({"--fault", "worker-hang:delay:delay=30:match=STALLME"},
                     /*workers=*/1);
  ASSERT_GE(fleet.pid, 0);
  ASSERT_TRUE(fleet.wait_ready());

  // Fire the stalling request without waiting for its (never-coming) reply.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, fleet.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string line = ideobf::server::render_request_line(
      deobf_request("Write-Host 'STALLME'", "stuck-req"));
  line += '\n';
  ASSERT_EQ(::send(fd, line.data(), line.size(), 0),
            static_cast<ssize_t>(line.size()));

  // The flight-recorder mirror (always on in fleet mode) shows the request
  // in flight before we pull the trigger.
  bool inflight = false;
  for (int i = 0; i < 400 && !inflight; ++i) {
    const std::string mirror = read_file(fleet.state_dir + "/flight.0");
    inflight = mirror.find("stuck-req") != std::string::npos &&
               mirror.find("\"outcome\":\"inflight\"") != std::string::npos;
    if (!inflight) ::usleep(25 * 1000);
  }
  ASSERT_TRUE(inflight);

  const pid_t victim = status_first_pid(fleet.status_json());
  ASSERT_GT(victim, 0);
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // The supervisor harvests the mirror into a postmortem that names the
  // request that died with the worker.
  std::string postmortem;
  for (int i = 0; i < 400; ++i) {
    postmortem = read_file(fleet.state_dir + "/postmortem.0.json");
    if (!postmortem.empty()) break;
    ::usleep(25 * 1000);
  }
  ASSERT_FALSE(postmortem.empty());
  EXPECT_NE(postmortem.find("\"signaled\":true"), std::string::npos)
      << postmortem;
  EXPECT_NE(postmortem.find("\"outcome\":\"inflight\""), std::string::npos)
      << postmortem;
  EXPECT_NE(postmortem.find("stuck-req"), std::string::npos) << postmortem;
  ::close(fd);
}

TEST(SupervisorFleet, MixedLanguageBatchThroughRealServeBinary) {
  // A live fleet serving both front-ends: interleaved PowerShell, explicit
  // JavaScript, and sniffed "auto" requests over one socket, every reply
  // naming the concrete front-end that served it.
  FleetProcess fleet({"--no-cache"}, /*workers=*/2);
  ASSERT_GE(fleet.pid, 0);
  ASSERT_TRUE(fleet.wait_ready());

  ServeClient client = ServeClient::connect_unix(fleet.socket_path);
  for (int round = 0; round < 4; ++round) {
    const std::string tag = std::to_string(round);

    ideobf::Request ps = deobf_request("wr`ite-ho`st 'fleet'", "ps-" + tag);
    const ideobf::ServeReply ps_reply = client.call(ps);
    EXPECT_EQ(ps_reply.status, "ok");
    EXPECT_EQ(ps_reply.response.language, "powershell");
    EXPECT_NE(ps_reply.response.result.find("Write-Host"), std::string::npos);

    ideobf::Request js =
        deobf_request("eval('h' + '(\"fleet\")');", "js-" + tag);
    js.language = "javascript";
    const ideobf::ServeReply js_reply = client.call(js);
    EXPECT_EQ(js_reply.status, "ok");
    EXPECT_EQ(js_reply.response.language, "javascript");
    EXPECT_EQ(js_reply.response.result, "h(\"fleet\");");
    EXPECT_EQ(js_reply.response.report.multilayer.layers_unwrapped, 1);

    ideobf::Request sniffed =
        deobf_request("var u = atob('aGk=');\nsend(u);\n", "auto-" + tag);
    sniffed.language = "auto";
    const ideobf::ServeReply auto_reply = client.call(sniffed);
    EXPECT_EQ(auto_reply.status, "ok");
    EXPECT_EQ(auto_reply.response.language, "javascript");
    EXPECT_NE(auto_reply.response.result.find("'hi'"), std::string::npos)
        << auto_reply.response.result;
  }
}

#endif  // IDEOBF_CLI_PATH

}  // namespace
