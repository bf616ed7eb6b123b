// The passes one benchmark process runs over a workload's plan: the
// concurrent wire run against a loopback server, and the sequential
// replays (in-process engine, in-process scheduler, one wire connection)
// that the traced run uses to split time across layers.
#ifndef SOPR_E2E_PASSES_H_
#define SOPR_E2E_PASSES_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/engine.h"
#include "exec/stats.h"
#include "net/client.h"
#include "net/server.h"
#include "server/session_manager.h"

namespace sopr {
namespace e2e {

/// The engine options every pass opens with: the WAL is written to
/// `wal_dir` but never fsynced (README.md, "Flush policy").
RuleEngineOptions BenchEngineOptions(const std::string& wal_dir);

/// A `sopr` server on an ephemeral loopback port: one worker per client
/// connection of the workload.
struct LiveServer {
  std::string wal_dir;
  std::unique_ptr<server::SessionManager> manager;
  std::unique_ptr<net::Server> server;

  /// Stops the server, closes the engine and returns its StateChecksum
  /// taken just before the close.
  uint64_t Close();
};

/// Starts a server over a fresh WAL directory and sends the workload's
/// set-up scripts over one client connection, as one pipelined burst.
Result<std::unique_ptr<LiveServer>> StartAndLoad(const Workload& workload,
                                                 uint64_t seed,
                                                 const std::string& wal_dir);

/// Size of `<wal_dir>/wal.log` in bytes.
uint64_t WalBytes(const std::string& wal_dir);

/// Reopens the engine from `wal_dir` and compares its StateChecksum with
/// `want`. Reports the time Engine::Open took and, when `replayed` is
/// non-null, the redo records a recovery of the same log replays.
Status ReopenCheck(const std::string& wal_dir, uint64_t want,
                   double* open_ms, uint64_t* replayed);

/// What one connection did during one phase.
struct PhaseTimes {
  int64_t start_ns = 0;
  std::vector<int64_t> end_ns;  // per connection; start_ns if it had no ops
};

/// Drives a workload's connections against a live server. Each phase
/// runs every connection's slice of the plan on its own thread, in
/// closed loop: a burst of pipelined writes, then its responses, or one
/// read and its rows.
class WireClients {
 public:
  static Result<std::unique_ptr<WireClients>> Connect(uint16_t port,
                                                     const Workload* workload,
                                                     const Plan* plan);

  /// Runs ops [from[k], to[k]) of every connection k. With `traced`,
  /// records net.* spans around each client call.
  PhaseTimes RunPhase(const std::vector<size_t>& from,
                      const std::vector<size_t>& to, bool traced);

  /// Per connection and op index: latency (ns, -1 = not run) and outcome.
  const std::vector<std::vector<int64_t>>& latency_ns() const {
    return latency_;
  }
  const std::vector<std::vector<bool>>& ok() const { return ok_; }
  /// The first failed read check, if any.
  Status check() const;
  const std::vector<SpanLog>& spans() const { return spans_; }
  net::Client* client(size_t k) { return clients_[k].get(); }
  void CloseAll();

 private:
  WireClients(const Workload* workload, const Plan* plan)
      : workload_(workload), plan_(plan) {}
  void RunSlice(size_t conn, size_t from, size_t to, bool traced);

  const Workload* workload_;
  const Plan* plan_;
  std::vector<std::unique_ptr<net::Client>> clients_;
  std::vector<std::vector<int64_t>> latency_;
  std::vector<std::vector<bool>> ok_;
  std::vector<ReadState> read_state_;
  std::vector<Status> check_;
  std::vector<SpanLog> spans_;
};

/// Result of a sequential replay of a plan (ops in id order, one thread).
struct Replay {
  SpanLog spans;
  std::vector<int64_t> op_ns;  // by op id: the op's root span
  int64_t wall_ns = 0;
  size_t ops = 0;
  size_t failed = 0;
  std::vector<std::vector<bool>> committed;
  Status check;  // first failed read, final or reopen check
  // In-process engine replay only: counters over the whole replay.
  exec::ExecStatsSnapshot exec_delta;
  uint64_t writes = 0;
  uint64_t considered = 0;
  uint64_t condition_true = 0;
  uint64_t fired = 0;
};

enum class ReplayMode {
  /// Engine::Open'd in-process, calling the parser, the rule engine
  /// (Begin / RunOps / ProcessRules / CommitStaged), Engine::AwaitDurable
  /// and Engine::QueryAtSnapshot directly.
  kEngine,
  /// SessionManager in-process: CommitScheduler::ExecuteBlockStaged /
  /// AwaitCommit / QuerySnapshot.
  kScheduler,
  /// One wire connection, one op at a time: net::Client Execute / Query.
  kWire,
};

/// Sets up a fresh engine in `wal_dir`, replays `plan` sequentially,
/// runs the final and reopen checks.
Replay RunReplay(ReplayMode mode, const Workload& workload, uint64_t seed,
                 const Plan& plan, const std::string& wal_dir);

}  // namespace e2e
}  // namespace sopr

#endif  // SOPR_E2E_PASSES_H_
