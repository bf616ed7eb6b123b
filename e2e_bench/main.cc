// sopr end-to-end benchmark: one process per workload runs the sopr
// server on loopback TCP and drives the workload's connections against
// it. Usage (run.py builds the binary and passes the flags):
//
//   sopr_e2e --workload org_cascade|wire_oltp|snapshot_mix --seed N
//            --seconds S --trace 0|1 [--work-dir DIR] [--git-describe TEXT]
//
// --trace 0 reports the end-to-end metrics of an untraced timed run;
// --trace 1 reports the per-layer metrics of the traced passes. The last
// line of standard output is the result as one JSON object. See
// README.md for the workloads, the metrics and what they should move.

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>

#include "bench.h"
#include "passes.h"
#include "storage/lock_manager.h"
#include "wal/wal_writer.h"

#ifndef SOPR_E2E_BUILD_TYPE
#define SOPR_E2E_BUILD_TYPE "unknown"
#endif
#ifndef SOPR_E2E_COMPILER
#define SOPR_E2E_COMPILER "unknown"
#endif

namespace sopr {
namespace e2e {
namespace {

// Set-up is repeated, at least kMinSetups times and until kSetupBudgetS
// seconds of set-up have run (at most kMaxSetups), and the median is
// reported, so set-up time is steady enough to guard (README.md).
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 40;
constexpr double kSetupBudgetS = 1.5;
constexpr size_t kTimedSlices = 5;
// The traced run's plans, as shares of a timed run's `--seconds`: the
// concurrent wire passes, and each sequential replay.
constexpr double kTraceWireShare = 0.4;
constexpr double kTraceReplayShare = 0.15;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/e2e";
  std::string git_describe = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::cerr << "sopr_e2e: " << why
            << "\nusage: sopr_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--git-describe TEXT]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v);
      } else if (flag == "--work-dir") {
        a.work_dir = v;
      } else if (flag == "--git-describe") {
        a.git_describe = v;
      } else {
        Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (a.seconds <= 0 || a.seconds > 600) Usage("--seconds out of range");
  if (a.trace != 0 && a.trace != 1) Usage("--trace must be 0 or 1");
  return a;
}

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;  // 0 = not a latency
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 0) {
    metrics_.push_back({name, value, unit, samples});
  }
  void Print(bool correct, size_t attempted, size_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("metric %-34s %14s %-6s", m.name.c_str(),
                  Number(m.value).c_str(), m.unit.c_str());
      if (m.samples) std::printf(" (n=%zu)", m.samples);
      std::printf("\n");
    }
    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      json += (i ? ", " : "") + Json(m.name) + ": {\"value\": " +
              Number(m.value) + ", \"unit\": " + Json(m.unit) + "}";
    }
    std::printf("%s}}\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

/// Provenance: what ran, where, and how it was built.
void PrintProvenance(const Args& a, const Workload& w, const Plan& plan,
                     const std::map<std::string, size_t>& samples) {
  std::string json = "{\"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                     ", \"build_type\": " + Json(SOPR_E2E_BUILD_TYPE) +
                     ", \"compiler\": " + Json(SOPR_E2E_COMPILER) +
                     ", \"git_describe\": " + Json(a.git_describe) +
                     ", \"workload\": " + Json(a.workload) +
                     ", \"seed\": " + std::to_string(a.seed) +
                     ", \"seconds\": " + Number(a.seconds) +
                     ", \"trace\": " + std::to_string(a.trace) +
                     ", \"fsync_policy\": \"off (wal.log written, never fsynced)\"" +
                     ", \"connections\": " + std::to_string(w.connections()) +
                     ", \"server_workers\": " + std::to_string(w.connections()) +
                     ", \"plan_ops\": " + std::to_string(plan.num_ops()) +
                     ", \"plan_digest\": \"" + std::to_string(plan.digest) + "\"" +
                     ", \"samples\": {";
  bool first = true;
  for (const auto& [name, n] : samples) {
    json += (first ? "" : ", ") + Json(name) + ": " + std::to_string(n);
    first = false;
  }
  std::printf("provenance %s}}\n", json.c_str());
}

// The run's working directory, removed on every exit path.
std::string g_run_dir;

[[noreturn]] void Fail(const std::string& what, const Status& status,
                       size_t attempted = 1, size_t failed = 0) {
  std::filesystem::remove_all(g_run_dir);
  std::cerr << "sopr_e2e: " << what << ": " << status.ToString() << "\n";
  std::printf("{\"correct\": false, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {}}\n",
              std::max<size_t>(attempted, 1), failed);
  std::fflush(stdout);
  std::fflush(stderr);
  // Server threads may still be running: skip static destructors.
  std::_Exit(1);
}

/// Index in `ops` at or after `target` where a new burst starts.
size_t AlignToBurst(const std::vector<Op>& ops, size_t target) {
  size_t i = std::min(target, ops.size());
  while (i > 0 && i < ops.size() && ops[i - 1].kind == OpKind::kWrite &&
         !ops[i - 1].burst_end) {
    ++i;
  }
  return i;
}

size_t TotalRows(Engine& engine) {
  size_t rows = 0;
  for (const std::string& table : engine.db().catalog().TableNames()) {
    rows += engine.TableSize(table).ValueOr(0);
  }
  return rows;
}

/// Boundaries of `parts` equal slices of every connection's timed ops
/// (after the warm-up), moved forward to whole bursts: slice q of
/// connection c is [bounds[q][c], bounds[q + 1][c]).
std::vector<std::vector<size_t>> Slices(const Plan& plan, size_t parts) {
  std::vector<std::vector<size_t>> bounds(parts + 1);
  for (size_t c = 0; c < plan.conns.size(); ++c) {
    const size_t lo = plan.warmup[c], n = plan.conns[c].size() - lo;
    for (size_t q = 0; q <= parts; ++q) {
      bounds[q].push_back(AlignToBurst(plan.conns[c], lo + n * q / parts));
    }
  }
  return bounds;
}

/// Latencies and counts of one or more phases, per op kind, plus each
/// phase's own throughput.
struct Tally {
  std::vector<double> write_ms, read_ms;
  std::vector<double> write_rates, read_rates;  // per phase, 1/s
  std::vector<double> write_p50s, read_p50s;    // per phase, ms
  size_t attempted = 0, failed = 0, commits = 0, reads = 0;
  int64_t write_elapsed_ns = 0;
};

double PerSecond(size_t n, int64_t ns) {
  return ns > 0 ? static_cast<double>(n) * 1e9 / static_cast<double>(ns) : 0;
}

void TallyPhase(const Plan& plan, const WireClients& d,
                const std::vector<size_t>& from, const std::vector<size_t>& to,
                const PhaseTimes& times, Tally* t) {
  int64_t write_end = times.start_ns, read_end = times.start_ns;
  const size_t commits0 = t->commits, reads0 = t->reads;
  const size_t write_ms0 = t->write_ms.size(), read_ms0 = t->read_ms.size();
  for (size_t c = 0; c < plan.conns.size(); ++c) {
    for (size_t i = from[c]; i < to[c]; ++i) {
      const Op& op = plan.conns[c][i];
      const bool ok = d.ok()[c][i];
      const double ms = static_cast<double>(d.latency_ns()[c][i]) / 1e6;
      ++t->attempted;
      if (!ok) ++t->failed;
      if (op.kind == OpKind::kWrite) {
        write_end = std::max(write_end, times.end_ns[c]);
        if (ok) {
          ++t->commits;
          t->write_ms.push_back(ms);
        }
      } else {
        read_end = std::max(read_end, times.end_ns[c]);
        if (ok) {
          ++t->reads;
          t->read_ms.push_back(ms);
        }
      }
    }
  }
  t->write_elapsed_ns += write_end - times.start_ns;
  t->write_rates.push_back(
      PerSecond(t->commits - commits0, write_end - times.start_ns));
  t->read_rates.push_back(PerSecond(t->reads - reads0, read_end - times.start_ns));
  t->write_p50s.push_back(
      Percentile({t->write_ms.begin() + write_ms0, t->write_ms.end()}, 0.5));
  t->read_p50s.push_back(
      Percentile({t->read_ms.begin() + read_ms0, t->read_ms.end()}, 0.5));
}

// --- --trace 0: the untraced timed run ------------------------------------------

int RunTimed(const Args& a, const Workload& w, const std::string& run_dir) {
  std::vector<double> setup_s;
  std::unique_ptr<LiveServer> live;
  double spent = 0;
  for (int k = 0; live == nullptr; ++k) {
    const std::string dir = run_dir + "/setup" + std::to_string(k);
    const int64_t t0 = NowNs();
    auto started = StartAndLoad(w, a.seed, dir);
    const int64_t t1 = NowNs();
    if (!started.ok()) Fail("set-up", started.status());
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    spent += setup_s.back();
    if (k + 1 >= kMaxSetups || (k + 1 >= kMinSetups && spent >= kSetupBudgetS)) {
      live = std::move(started).value();
    } else {
      started.value()->Close();
      std::filesystem::remove_all(dir);
    }
  }

  const Plan plan = w.MakePlan(a.seed, a.seconds);
  auto clients = WireClients::Connect(live->server->port(), &w, &plan);
  if (!clients.ok()) Fail("connect", clients.status());
  WireClients& d = *clients.value();
  std::vector<size_t> zero(plan.conns.size(), 0);
  d.RunPhase(zero, plan.warmup, false);
  // The timed ops run as kTimedSlices barrier-separated phases; each
  // throughput and p50 is the median of the phases' own values, so a
  // stall of the machine in one phase moves it less. A p99 pools every
  // sample (it needs at least 1000).
  const std::vector<std::vector<size_t>> slices = Slices(plan, kTimedSlices);
  const uint64_t wal0 = WalBytes(live->wal_dir);
  Tally t;
  for (size_t q = 0; q < kTimedSlices; ++q) {
    const PhaseTimes times = d.RunPhase(slices[q], slices[q + 1], false);
    TallyPhase(plan, d, slices[q], slices[q + 1], times, &t);
    std::fprintf(stderr,
                 "slice %zu: txn %.1f/s p50 %.3f ms, read %.1f/s p50 %.3f ms\n",
                 q, t.write_rates.back(), t.write_p50s.back(),
                 t.read_rates.back(), t.read_p50s.back());
  }
  const uint64_t wal1 = WalBytes(live->wal_dir);
  if (!d.check().ok()) Fail("read check", d.check(), t.attempted, t.failed);
  Status final_check = w.CheckFinal(plan, d.ok(), [&d](const std::string& sql) {
    return d.client(0)->Query(sql);
  });
  if (!final_check.ok()) Fail("final check", final_check, t.attempted, t.failed);
  d.CloseAll();
  const uint64_t checksum = live->Close();
  Status reopened = ReopenCheck(live->wal_dir, checksum, nullptr, nullptr);
  if (!reopened.ok()) Fail("reopen check", reopened, t.attempted, t.failed);

  Report r;
  r.Add("setup_s", Median(setup_s), "s");
  r.Add("txn_per_s", Median(t.write_rates), "1/s");
  r.Add("txn_p50_ms", Median(t.write_p50s), "ms", t.write_ms.size());
  r.Add("txn_p99_ms", Percentile(t.write_ms, 0.99), "ms", t.write_ms.size());
  r.Add("read_per_s", Median(t.read_rates), "1/s");
  r.Add("read_p50_ms", Median(t.read_p50s), "ms", t.read_ms.size());
  r.Add("read_p99_ms", Percentile(t.read_ms, 0.99), "ms", t.read_ms.size());
  r.Add("ok_ratio",
        static_cast<double>(t.attempted - t.failed) /
            static_cast<double>(std::max<size_t>(t.attempted, 1)),
        "ratio");
  r.Add("wal_bytes_per_txn",
        static_cast<double>(wal1 - wal0) /
            static_cast<double>(std::max<size_t>(t.commits, 1)),
        "B");
  r.Add("peak_rss_mb", PeakRssMb(), "MiB");

  PrintProvenance(a, w, plan,
                  {{"txn", t.write_ms.size()},
                   {"read", t.read_ms.size()},
                   {"setup", setup_s.size()}});
  if (t.write_ms.size() < 1000 || t.read_ms.size() < 1000) {
    std::cerr << "sopr_e2e: warning: a p99 needs at least 1000 samples; this "
                 "run has " << t.write_ms.size() << " txn and "
              << t.read_ms.size() << " read samples\n";
  }
  r.Print(true, t.attempted, t.failed);
  return 0;
}

// --- --trace 1: the traced passes ------------------------------------------------

/// Self times (ms) of every span named `name`.
std::vector<double> SelfMs(const std::vector<Span>& spans,
                           const std::vector<int64_t>& self,
                           const std::string& name) {
  std::vector<double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (name == spans[i].name) out.push_back(static_cast<double>(self[i]) / 1e6);
  }
  return out;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Share of a replay's wall time covered by the self times of its layer
/// spans (every span but the per-operation roots).
double Coverage(const Replay& r) {
  const std::vector<int64_t> self = SelfTimes(r.spans.spans());
  int64_t covered = 0;
  for (size_t i = 0; i < self.size(); ++i) {
    if (r.spans.spans()[i].parent >= 0) covered += self[i];
  }
  return r.wall_ns > 0 ? static_cast<double>(covered) / static_cast<double>(r.wall_ns)
                       : 0;
}

void WriteSpans(const char* pass, size_t conn, const std::vector<Span>& spans,
                std::ostream& out) {
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << pass << '\t' << conn << '\t' << s.op << '\t' << i << '\t'
        << s.parent << '\t' << s.name << '\t' << s.start_ns << '\t'
        << s.end_ns << '\n';
  }
}

int RunTraced(const Args& a, const Workload& w, const std::string& run_dir) {
  size_t attempted = 0, failed = 0;
  Report r;

  // Concurrent wire passes on one server: untraced and traced quarters
  // alternate, so both see the same state and the same drift.
  auto started = StartAndLoad(w, a.seed, run_dir + "/wire");
  if (!started.ok()) Fail("set-up", started.status());
  std::unique_ptr<LiveServer> live = std::move(started).value();
  Engine& engine = live->manager->engine();
  const Plan plan = w.MakePlan(a.seed, a.seconds * kTraceWireShare);
  auto clients = WireClients::Connect(live->server->port(), &w, &plan);
  if (!clients.ok()) Fail("connect", clients.status());
  WireClients& d = *clients.value();
  std::vector<size_t> zero(plan.conns.size(), 0);
  d.RunPhase(zero, plan.warmup, false);

  const size_t rows_start = TotalRows(engine);
  const wal::GroupCommitStats group0 = engine.wal()->group_stats();
  const std::vector<std::vector<size_t>> bounds = Slices(plan, 4);
  Tally untraced, traced;
  int64_t traced_wall_ns = 0, traced_covered_ns = 0;
  for (size_t q = 0; q < 4; ++q) {
    const bool on = q % 2 == 1;
    std::vector<size_t> span_mark;
    for (const SpanLog& log : d.spans()) span_mark.push_back(log.spans().size());
    const PhaseTimes times = d.RunPhase(bounds[q], bounds[q + 1], on);
    TallyPhase(plan, d, bounds[q], bounds[q + 1], times, on ? &traced : &untraced);
    if (!on) continue;
    for (size_t c = 0; c < plan.conns.size(); ++c) {
      if (bounds[q][c] >= bounds[q + 1][c]) continue;
      traced_wall_ns += times.end_ns[c] - times.start_ns;
      const auto& spans = d.spans()[c].spans();
      for (size_t i = span_mark[c]; i < spans.size(); ++i) {
        traced_covered_ns += spans[i].end_ns - spans[i].start_ns;
      }
    }
  }
  attempted += untraced.attempted + traced.attempted;
  failed += untraced.failed + traced.failed;
  const wal::GroupCommitStats group1 = engine.wal()->group_stats();

  std::vector<double> rtt_us;
  for (int i = 0; i < 200; ++i) {
    const int64_t t0 = NowNs();
    Status pong = d.client(0)->Ping();
    if (!pong.ok()) Fail("ping", pong, attempted, failed);
    rtt_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  std::vector<double> scan_ms;
  {
    auto table = engine.db().GetTable(w.hot_table());
    if (!table.ok()) Fail("hot table", table.status(), attempted, failed);
    for (int i = 0; i < 5; ++i) {
      std::vector<std::pair<TupleHandle, Row>> rows;
      const int64_t t0 = NowNs();
      table.value()->SnapshotScan(engine.last_commit_lsn(), &rows);
      scan_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
  }
  const server::SessionManager::Snapshot sessions = live->manager->Inspect();
  uint64_t aborts = 0, commits = 0;
  for (const auto& s : sessions.sessions) {
    aborts += s.aborts;
    commits += s.commits;
  }
  const server::AdmissionStats& adm = sessions.admission;
  const uint64_t sheds =
      adm.shed_queue_full + adm.shed_queue_deadline + adm.shed_cancelled;
  LockManager* locks = engine.db().lock_manager();
  const uint64_t deadlocks = locks ? locks->deadlocks() : 0;
  const uint64_t lock_timeouts = locks ? locks->wait_timeouts() : 0;
  const size_t rows_end = TotalRows(engine);

  if (!d.check().ok()) Fail("read check", d.check(), attempted, failed);
  Status final_check = w.CheckFinal(plan, d.ok(), [&d](const std::string& sql) {
    return d.client(0)->Query(sql);
  });
  if (!final_check.ok()) Fail("final check", final_check, attempted, failed);
  d.CloseAll();
  double recovery_ms = 0;
  uint64_t replayed = 0;
  Status reopened =
      ReopenCheck(live->wal_dir, live->Close(), &recovery_ms, &replayed);
  if (!reopened.ok()) Fail("reopen check", reopened, attempted, failed);

  // Sequential replays of one smaller plan: in-process engine, in-process
  // scheduler, one wire connection.
  const Plan seq_plan = w.MakePlan(a.seed, a.seconds * kTraceReplayShare);
  const Replay engine_pass =
      RunReplay(ReplayMode::kEngine, w, a.seed, seq_plan, run_dir + "/engine");
  const Replay sched_pass = RunReplay(ReplayMode::kScheduler, w, a.seed,
                                      seq_plan, run_dir + "/scheduler");
  const Replay wire_pass =
      RunReplay(ReplayMode::kWire, w, a.seed, seq_plan, run_dir + "/wire_seq");
  for (const Replay* p : {&engine_pass, &sched_pass, &wire_pass}) {
    attempted += p->ops;
    failed += p->failed;
    if (!p->check.ok()) Fail("replay check", p->check, attempted, failed);
  }

  const auto& es = engine_pass.spans.spans();
  const std::vector<int64_t> eself = SelfTimes(es);
  const auto& ss = sched_pass.spans.spans();
  const std::vector<int64_t> sself = SelfTimes(ss);

  const std::vector<double> process = SelfMs(es, eself, "rules.process");
  r.Add("rules.process_ms_p50", Percentile(process, 0.5), "ms", process.size());
  r.Add("rules.process_ms_p99", Percentile(process, 0.99), "ms", process.size());
  r.Add("rules.run_ops_ms_p50", Percentile(SelfMs(es, eself, "rules.run_ops"), 0.5), "ms");
  r.Add("rules.commit_staged_ms_p50",
        Percentile(SelfMs(es, eself, "rules.commit_staged"), 0.5), "ms");
  const double writes = static_cast<double>(std::max<uint64_t>(engine_pass.writes, 1));
  r.Add("rules.considered_per_txn", static_cast<double>(engine_pass.considered) / writes,
        "count");
  r.Add("rules.fired_per_txn", static_cast<double>(engine_pass.fired) / writes, "count");
  r.Add("rules.condition_true_ratio",
        static_cast<double>(engine_pass.condition_true) /
            static_cast<double>(std::max<uint64_t>(engine_pass.considered, 1)),
        "ratio");

  const std::vector<double> parse = SelfMs(es, eself, "sql.parse");
  std::vector<double> parse_us;
  for (double ms : parse) parse_us.push_back(ms * 1e3);
  r.Add("sql.parse_us_p50", Percentile(parse_us, 0.5), "us", parse_us.size());
  r.Add("sql.parse_share", Sum(parse) * 1e6 / static_cast<double>(engine_pass.wall_ns),
        "ratio");

  const std::vector<double> stage = SelfMs(ss, sself, "server.stage");
  r.Add("server.stage_ms_p50", Percentile(stage, 0.5), "ms", stage.size());
  r.Add("server.stage_ms_p99", Percentile(stage, 0.99), "ms", stage.size());
  r.Add("server.await_ms_p50", Percentile(SelfMs(ss, sself, "server.await"), 0.5), "ms");
  r.Add("server.sheds", static_cast<double>(sheds), "count");
  r.Add("server.aborts_per_txn",
        static_cast<double>(aborts) / static_cast<double>(std::max<uint64_t>(commits, 1)),
        "ratio");

  r.Add("net.rtt_us_p50", Percentile(rtt_us, 0.5), "us", rtt_us.size());
  std::vector<double> overhead_us;
  for (size_t id = 0; id < wire_pass.op_ns.size(); ++id) {
    overhead_us.push_back(
        static_cast<double>(wire_pass.op_ns[id] - engine_pass.op_ns[id]) / 1e3);
  }
  r.Add("net.wire_overhead_us_p50", Percentile(overhead_us, 0.5), "us",
        overhead_us.size());

  const std::vector<double> select = SelfMs(es, eself, "query.snapshot_select");
  r.Add("query.snapshot_select_ms_p50", Percentile(select, 0.5), "ms", select.size());

  const exec::ExecStatsSnapshot& x = engine_pass.exec_delta;
  const double ops = static_cast<double>(std::max<size_t>(engine_pass.ops, 1));
  const uint64_t kernels = x.kernel_compare + x.kernel_arith + x.kernel_null_check +
                           x.kernel_membership + x.kernel_logical;
  r.Add("exec.batches_per_op", static_cast<double>(x.batches) / ops, "count");
  r.Add("exec.columnar_chunks_per_op", static_cast<double>(x.columnar_chunks) / ops,
        "count");
  r.Add("exec.kernel_calls_per_op", static_cast<double>(kernels) / ops, "count");
  r.Add("exec.pointer_fallback_ratio",
        static_cast<double>(x.pointer_fallback_preds) /
            static_cast<double>(std::max<uint64_t>(kernels + x.pointer_fallback_preds, 1)),
        "ratio");
  r.Add("exec.hash_join_builds_per_op", static_cast<double>(x.hash_join_builds) / ops,
        "count");
  r.Add("exec.hash_join_fallbacks", static_cast<double>(x.hash_join_fallbacks), "count");
  r.Add("exec.scalar_fallbacks_per_op", static_cast<double>(x.scalar_fallbacks) / ops,
        "count");

  r.Add("storage.snapshot_scan_ms", Median(scan_ms), "ms", scan_ms.size());
  r.Add("storage.lock_deadlocks", static_cast<double>(deadlocks), "count");
  r.Add("storage.lock_wait_timeouts", static_cast<double>(lock_timeouts), "count");
  r.Add("storage.rows_start", static_cast<double>(rows_start), "count");
  r.Add("storage.rows_end", static_cast<double>(rows_end), "count");

  r.Add("wal.await_ms_p50", Percentile(SelfMs(es, eself, "wal.await"), 0.5), "ms");
  const uint64_t cohorts = group1.cohorts - group0.cohorts;
  r.Add("wal.batches_per_cohort",
        static_cast<double>(group1.batches - group0.batches) /
            static_cast<double>(std::max<uint64_t>(cohorts, 1)),
        "count");
  r.Add("wal.largest_cohort", static_cast<double>(group1.largest_cohort), "count");
  r.Add("wal.recovery_ms", recovery_ms, "ms");
  r.Add("wal.replayed_records", static_cast<double>(replayed), "count");

  const double tps_untraced = PerSecond(untraced.commits, untraced.write_elapsed_ns);
  const double tps_traced = PerSecond(traced.commits, traced.write_elapsed_ns);
  r.Add("trace.txn_per_s_untraced", tps_untraced, "1/s");
  r.Add("trace.txn_per_s_traced", tps_traced, "1/s");
  r.Add("trace.overhead_ratio", tps_untraced > 0 ? 1 - tps_traced / tps_untraced : 0,
        "ratio");
  const double wire_cov =
      traced_wall_ns > 0 ? static_cast<double>(traced_covered_ns) /
                               static_cast<double>(traced_wall_ns)
                         : 0;
  r.Add("trace.coverage_engine", Coverage(engine_pass), "ratio");
  r.Add("trace.coverage_scheduler", Coverage(sched_pass), "ratio");
  r.Add("trace.coverage_wire", std::min(wire_cov, Coverage(wire_pass)), "ratio");

  // Spans go to disk only now, after every pass has finished.
  const std::string spans_dir = a.work_dir + "/spans";
  std::filesystem::create_directories(spans_dir);
  const std::string path = spans_dir + "/" + a.workload + ".tsv";
  std::ofstream out(path);
  out << "pass\tconn\top\tspan\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t c = 0; c < d.spans().size(); ++c) {
    WriteSpans("wire", c, d.spans()[c].spans(), out);
  }
  WriteSpans("engine", 0, es, out);
  WriteSpans("scheduler", 0, ss, out);
  WriteSpans("wire_seq", 0, wire_pass.spans.spans(), out);

  std::map<std::string, size_t> samples;
  for (const auto* spans : {&es, &ss, &wire_pass.spans.spans()}) {
    for (const Span& s : *spans) ++samples[s.name];
  }
  for (const SpanLog& log : d.spans()) {
    for (const Span& s : log.spans()) ++samples[s.name];
  }
  PrintProvenance(a, w, seq_plan, samples);
  std::printf("spans %s\n", path.c_str());
  r.Print(true, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace sopr

int main(int argc, char** argv) {
  using namespace sopr::e2e;
  const Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  if (workload == nullptr) Usage("unknown workload " + args.workload);
  // The benchmark fixes the flush policy and arms no fault injection,
  // whatever the environment says.
  unsetenv("SOPR_WAL_FSYNC");
  unsetenv("SOPR_FAILPOINTS");
  g_run_dir = args.work_dir + "/run-" + args.workload + "-" +
              std::to_string(getpid());
  const std::string& run_dir = g_run_dir;
  std::filesystem::remove_all(run_dir);
  std::filesystem::create_directories(run_dir);
  const int rc = args.trace ? RunTraced(args, *workload, run_dir)
                            : RunTimed(args, *workload, run_dir);
  std::filesystem::remove_all(run_dir);
  return rc;
}
