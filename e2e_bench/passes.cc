#include "passes.h"

#include <sys/stat.h>

#include <atomic>
#include <iostream>
#include <thread>

#include "net/frame.h"
#include "sql/parser.h"
#include "wal/recovery.h"
#include "wal/wal_writer.h"

namespace sopr {
namespace e2e {

namespace {

Result<const SelectStmt*> AsSelect(const StmtPtr& stmt) {
  if (stmt->kind != StmtKind::kSelect) {
    return Status::InvalidArgument("expected a select: " + stmt->ToString());
  }
  return static_cast<const SelectStmt*>(stmt.get());
}

/// Reports an operation failure once per replay or connection: the run
/// continues (ok_ratio counts it), the message goes to stderr.
void NoteFailure(bool* noted, const Op& op, const Status& status) {
  if (*noted) return;
  *noted = true;
  std::cerr << "op " << op.id << " failed: " << status.ToString()
            << "\n  sql: " << op.sql.substr(0, 200) << "\n";
}

}  // namespace

RuleEngineOptions BenchEngineOptions(const std::string& wal_dir) {
  RuleEngineOptions options;
  options.wal_dir = wal_dir;
  options.wal_fsync = WalFsyncPolicy::kOff;
  return options;
}

uint64_t LiveServer::Close() {
  server->Shutdown();
  const uint64_t checksum = manager->engine().StateChecksum();
  server.reset();
  manager.reset();
  return checksum;
}

Result<std::unique_ptr<LiveServer>> StartAndLoad(const Workload& workload,
                                                 uint64_t seed,
                                                 const std::string& wal_dir) {
  auto live = std::make_unique<LiveServer>();
  live->wal_dir = wal_dir;
  SOPR_ASSIGN_OR_RETURN(live->manager, server::SessionManager::Open(
                                           BenchEngineOptions(wal_dir)));
  net::Server::Options options;
  options.workers = workload.connections();
  SOPR_ASSIGN_OR_RETURN(live->server,
                        net::Server::Start(live->manager.get(), options));
  net::Client::Options client_options;
  client_options.port = live->server->port();
  client_options.client_name = "e2e-setup";
  SOPR_ASSIGN_OR_RETURN(std::unique_ptr<net::Client> client,
                        net::Client::Connect(client_options));
  // One pipelined burst: set-up time is the server's work, not one
  // round trip per script.
  const std::vector<std::string> scripts = workload.SetupScripts(seed);
  SOPR_ASSIGN_OR_RETURN(std::vector<net::Client::ExecOutcome> outcomes,
                        client->ExecutePipelined(scripts));
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].status.ok()) {
      return Status::Internal("set-up script failed: " +
                              outcomes[i].status.ToString() + "\n  " +
                              scripts[i].substr(0, 200));
    }
  }
  client->Close();
  return live;
}

uint64_t WalBytes(const std::string& wal_dir) {
  struct stat st;
  if (::stat(wal::WalWriter::LogPath(wal_dir).c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

Status ReopenCheck(const std::string& wal_dir, uint64_t want, double* open_ms,
                   uint64_t* replayed) {
  const int64_t t0 = NowNs();
  auto reopened = Engine::Open(BenchEngineOptions(wal_dir));
  const int64_t t1 = NowNs();
  if (!reopened.ok()) return reopened.status();
  const uint64_t got = reopened.value()->StateChecksum();
  reopened.value().reset();
  if (open_ms != nullptr) *open_ms = static_cast<double>(t1 - t0) / 1e6;
  if (got != want) {
    return Status::Internal("reopened StateChecksum " + std::to_string(got) +
                            " != " + std::to_string(want) +
                            " before the close");
  }
  if (replayed != nullptr) {
    Engine fresh;
    SOPR_ASSIGN_OR_RETURN(wal::RecoveryStats stats,
                          wal::RecoverDatabase(wal_dir, &fresh));
    *replayed = stats.replayed_records;
  }
  return Status::OK();
}

// --- WireClients --------------------------------------------------------------

Result<std::unique_ptr<WireClients>> WireClients::Connect(
    uint16_t port, const Workload* workload, const Plan* plan) {
  std::unique_ptr<WireClients> d(new WireClients(workload, plan));
  const size_t n = plan->conns.size();
  for (size_t k = 0; k < n; ++k) {
    net::Client::Options options;
    options.port = port;
    options.client_name = "e2e-" + std::to_string(k);
    SOPR_ASSIGN_OR_RETURN(std::unique_ptr<net::Client> client,
                          net::Client::Connect(options));
    d->clients_.push_back(std::move(client));
    d->latency_.emplace_back(plan->conns[k].size(), -1);
    d->ok_.emplace_back(plan->conns[k].size(), false);
  }
  d->read_state_.resize(n);
  d->spans_.resize(n);
  d->check_.resize(n);
  return d;
}

Status WireClients::check() const {
  for (const Status& s : check_) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

void WireClients::CloseAll() {
  for (auto& client : clients_) {
    if (client->connected()) client->Close();
  }
}

void WireClients::RunSlice(size_t conn, size_t from, size_t to, bool traced) {
  net::Client* client = clients_[conn].get();
  const std::vector<Op>& ops = plan_->conns[conn];
  SpanLog& log = spans_[conn];
  bool noted = false;
  std::string burst;
  size_t i = from;
  while (i < to) {
    const Op& op = ops[i];
    if (op.kind == OpKind::kRead) {
      const int64_t t0 = NowNs();
      auto rows = client->Query(op.sql);
      const int64_t t1 = NowNs();
      if (traced) log.Add("net.query", op.id, t0, t1);
      latency_[conn][i] = t1 - t0;
      ok_[conn][i] = rows.ok();
      if (!rows.ok()) {
        NoteFailure(&noted, op, rows.status());
      } else if (check_[conn].ok()) {
        check_[conn] = workload_->CheckRead(op, rows.value(), &read_state_[conn]);
      }
      ++i;
      continue;
    }
    // A burst: every script written at once, responses read in order;
    // each script's latency runs from the burst's send to its own reply.
    size_t j = i;
    burst.clear();
    while (j < to && ops[j].kind == OpKind::kWrite) {
      net::PayloadWriter w;
      w.Str(ops[j].sql);
      net::AppendFrame(net::FrameType::kExecute, w.bytes(), &burst);
      if (ops[j++].burst_end) break;
    }
    const int64_t t0 = NowNs();
    Status transport = client->SendRaw(burst);
    int64_t prev = NowNs();
    if (traced) log.Add("net.send", op.id, t0, prev);
    for (size_t k = i; k < j; ++k) {
      Status status = transport;
      if (transport.ok()) {
        auto frame = client->ReadFrame();
        if (!frame.ok()) {
          transport = status = frame.status();
        } else if (frame.value().type == net::FrameType::kError) {
          uint32_t hint = 0;
          status = net::DecodeError(frame.value().payload, &hint);
          if (status.ok()) status = Status::Internal("kError decoded to OK");
        } else if (frame.value().type != net::FrameType::kOk) {
          status = Status::Internal("unexpected response frame type");
        }
      }
      const int64_t t = NowNs();
      if (traced) log.Add("net.recv", ops[k].id, prev, t);
      prev = t;
      latency_[conn][k] = t - t0;
      ok_[conn][k] = status.ok();
      if (!status.ok()) NoteFailure(&noted, ops[k], status);
    }
    if (!transport.ok() && check_[conn].ok()) check_[conn] = transport;
    i = j;
  }
}

PhaseTimes WireClients::RunPhase(const std::vector<size_t>& from,
                                const std::vector<size_t>& to, bool traced) {
  const size_t n = clients_.size();
  PhaseTimes times;
  times.end_ns.assign(n, 0);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t k = 0; k < n; ++k) {
    if (from[k] >= to[k]) continue;
    threads.emplace_back([&, k] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      RunSlice(k, from[k], to[k], traced);
      times.end_ns[k] = NowNs();
    });
  }
  times.start_ns = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  for (size_t k = 0; k < n; ++k) {
    if (from[k] >= to[k]) times.end_ns[k] = times.start_ns;
  }
  return times;
}

// --- Sequential replays --------------------------------------------------------

namespace {

/// One write / read through the layer under test; spans hang off `root`.
using WriteFn = std::function<Status(const Op&, int32_t root)>;
using ReadFn = std::function<Result<QueryResult>(const Op&, int32_t root)>;

void ReplayLoop(const Workload& workload, const Plan& plan,
                const WriteFn& write, const ReadFn& read, Replay* out) {
  const std::vector<const Op*> seq = plan.Sequential();
  std::vector<std::pair<size_t, size_t>> where(seq.size());
  for (size_t c = 0; c < plan.conns.size(); ++c) {
    out->committed.emplace_back(plan.conns[c].size(), false);
    for (size_t i = 0; i < plan.conns[c].size(); ++i) {
      where[plan.conns[c][i].id] = {c, i};
    }
  }
  std::vector<ReadState> states(plan.conns.size());
  out->op_ns.assign(seq.size(), -1);
  bool noted = false;
  const int64_t wall0 = NowNs();
  for (const Op* op : seq) {
    const auto [conn, index] = where[op->id];
    const int32_t root = out->spans.Open("op", op->id);
    Status status;
    if (op->kind == OpKind::kWrite) {
      status = write(*op, root);
      out->committed[conn][index] = status.ok();
    } else {
      auto rows = read(*op, root);
      status = rows.status();
      if (rows.ok() && out->check.ok()) {
        out->check = workload.CheckRead(*op, rows.value(), &states[conn]);
      }
    }
    out->spans.Close(root);
    const Span& span = out->spans.spans()[static_cast<size_t>(root)];
    out->op_ns[op->id] = span.end_ns - span.start_ns;
    ++out->ops;
    if (!status.ok()) {
      ++out->failed;
      NoteFailure(&noted, *op, status);
    }
  }
  out->wall_ns = NowNs() - wall0;
}

Status RunSetup(const Workload& workload, uint64_t seed,
                const std::function<Status(const std::string&)>& execute) {
  for (const std::string& sql : workload.SetupScripts(seed)) {
    Status s = execute(sql);
    if (!s.ok()) {
      return Status::Internal("set-up script failed: " + s.ToString() +
                              "\n  " + sql.substr(0, 200));
    }
  }
  return Status::OK();
}

Status EngineReplay(const Workload& workload, uint64_t seed, const Plan& plan,
                    const std::string& wal_dir, Replay* out) {
  SOPR_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                        Engine::Open(BenchEngineOptions(wal_dir)));
  Engine* e = engine.get();
  // The options a SessionManager applies: MVCC snapshots, record locks,
  // and commit-time version pruning up to the newest commit (no snapshot
  // older than that is ever pinned in a sequential replay).
  e->EnableMvcc();
  e->EnableConcurrentWriters();
  e->db().set_incremental_prune_floor([e] { return e->last_commit_lsn(); });
  SOPR_RETURN_NOT_OK(
      RunSetup(workload, seed, [e](const std::string& sql) { return e->Execute(sql); }));

  SpanLog* log = &out->spans;
  RuleEngine& rules = e->rules();
  WriteFn write = [&](const Op& op, int32_t root) -> Status {
    auto stmts = Timed(log, "sql.parse", op.id, root,
                       [&] { return Parser::ParseScript(op.sql); });
    if (!stmts.ok()) return stmts.status();
    std::vector<const Stmt*> ops;
    for (const StmtPtr& stmt : stmts.value()) ops.push_back(stmt.get());
    ExecutionTrace trace;
    SOPR_RETURN_NOT_OK(Timed(log, "rules.begin", op.id, root,
                             [&] { return rules.Begin(); }));
    SOPR_RETURN_NOT_OK(Timed(log, "rules.run_ops", op.id, root,
                             [&] { return rules.RunOps(ops, &trace); }));
    SOPR_RETURN_NOT_OK(Timed(log, "rules.process", op.id, root,
                             [&] { return rules.ProcessRules(&trace); }));
    std::shared_ptr<wal::CommitTicket> ticket;
    if (rules.in_transaction()) {
      SOPR_RETURN_NOT_OK(
          Timed(log, "rules.commit_staged", op.id, root,
                [&] { return rules.CommitStaged(&trace, &ticket); }));
      SOPR_RETURN_NOT_OK(Timed(log, "wal.await", op.id, root,
                               [&] { return e->AwaitDurable(ticket); }));
    }
    ++out->writes;
    out->considered += trace.considered.size();
    for (const Consideration& c : trace.considered) {
      out->condition_true += c.condition_held ? 1 : 0;
    }
    out->fired += trace.firings.size();
    if (trace.rolled_back) {
      return Status::RolledBack("rolled back by rule " + trace.rollback_rule);
    }
    return Status::OK();
  };
  ReadFn read = [&](const Op& op, int32_t root) -> Result<QueryResult> {
    auto stmt = Timed(log, "sql.parse", op.id, root,
                      [&] { return Parser::ParseStatement(op.sql); });
    if (!stmt.ok()) return stmt.status();
    SOPR_ASSIGN_OR_RETURN(const SelectStmt* select, AsSelect(stmt.value()));
    return Timed(log, "query.snapshot_select", op.id, root, [&] {
      return e->QueryAtSnapshot(*select, e->last_commit_lsn());
    });
  };
  const exec::ExecStatsSnapshot before = exec::SnapshotStats();
  ReplayLoop(workload, plan, write, read, out);
  out->exec_delta = exec::SnapshotStats() - before;

  SOPR_RETURN_NOT_OK(out->check);
  SOPR_RETURN_NOT_OK(workload.CheckFinal(
      plan, out->committed, [e](const std::string& sql) -> Result<QueryResult> {
        SOPR_ASSIGN_OR_RETURN(StmtPtr stmt, Parser::ParseStatement(sql));
        SOPR_ASSIGN_OR_RETURN(const SelectStmt* select, AsSelect(stmt));
        return e->QueryAtSnapshot(*select, e->last_commit_lsn());
      }));
  const uint64_t checksum = e->StateChecksum();
  engine.reset();
  return ReopenCheck(wal_dir, checksum, nullptr, nullptr);
}

Status SchedulerReplay(const Workload& workload, uint64_t seed,
                       const Plan& plan, const std::string& wal_dir,
                       Replay* out) {
  SOPR_ASSIGN_OR_RETURN(std::unique_ptr<server::SessionManager> manager,
                        server::SessionManager::Open(BenchEngineOptions(wal_dir)));
  SOPR_ASSIGN_OR_RETURN(server::Session * session, manager->CreateSession());
  SOPR_RETURN_NOT_OK(RunSetup(workload, seed, [session](const std::string& sql) {
    return session->Execute(sql);
  }));
  server::CommitScheduler& scheduler = manager->scheduler();
  SpanLog* log = &out->spans;
  WriteFn write = [&](const Op& op, int32_t root) -> Status {
    auto stmts = Timed(log, "sql.parse", op.id, root,
                       [&] { return Parser::ParseScript(op.sql); });
    if (!stmts.ok()) return stmts.status();
    server::CommitScheduler::StagedCommit staged;
    auto trace = Timed(log, "server.stage", op.id, root, [&] {
      return scheduler.ExecuteBlockStaged(stmts.value(), &staged);
    });
    if (!trace.ok()) return trace.status();
    if (staged.pending()) {
      SOPR_RETURN_NOT_OK(Timed(log, "server.await", op.id, root,
                               [&] { return scheduler.AwaitCommit(&staged); }));
    }
    if (trace.value().rolled_back) {
      return Status::RolledBack("rolled back by rule " +
                                trace.value().rollback_rule);
    }
    return Status::OK();
  };
  ReadFn read = [&](const Op& op, int32_t root) -> Result<QueryResult> {
    auto stmt = Timed(log, "sql.parse", op.id, root,
                      [&] { return Parser::ParseStatement(op.sql); });
    if (!stmt.ok()) return stmt.status();
    SOPR_ASSIGN_OR_RETURN(const SelectStmt* select, AsSelect(stmt.value()));
    return Timed(log, "server.query", op.id, root,
                 [&] { return scheduler.QuerySnapshot(*select); });
  };
  ReplayLoop(workload, plan, write, read, out);
  SOPR_RETURN_NOT_OK(out->check);
  SOPR_RETURN_NOT_OK(workload.CheckFinal(
      plan, out->committed,
      [session](const std::string& sql) { return session->Query(sql); }));
  const uint64_t checksum = manager->engine().StateChecksum();
  manager.reset();
  return ReopenCheck(wal_dir, checksum, nullptr, nullptr);
}

Status WireReplay(const Workload& workload, uint64_t seed, const Plan& plan,
                  const std::string& wal_dir, Replay* out) {
  LiveServer live;
  live.wal_dir = wal_dir;
  SOPR_ASSIGN_OR_RETURN(live.manager, server::SessionManager::Open(
                                          BenchEngineOptions(wal_dir)));
  {
    SOPR_ASSIGN_OR_RETURN(server::Session * session,
                          live.manager->CreateSession());
    SOPR_RETURN_NOT_OK(RunSetup(workload, seed, [session](const std::string& sql) {
      return session->Execute(sql);
    }));
    SOPR_RETURN_NOT_OK(live.manager->CloseSession(session->id()));
  }
  net::Server::Options options;
  options.workers = 1;
  SOPR_ASSIGN_OR_RETURN(live.server,
                        net::Server::Start(live.manager.get(), options));
  net::Client::Options client_options;
  client_options.port = live.server->port();
  client_options.client_name = "e2e-replay";
  SOPR_ASSIGN_OR_RETURN(std::unique_ptr<net::Client> client,
                        net::Client::Connect(client_options));
  SpanLog* log = &out->spans;
  WriteFn write = [&](const Op& op, int32_t root) -> Status {
    return Timed(log, "net.execute", op.id, root,
                 [&] { return client->Execute(op.sql); })
        .status();
  };
  ReadFn read = [&](const Op& op, int32_t root) -> Result<QueryResult> {
    return Timed(log, "net.query", op.id, root,
                 [&] { return client->Query(op.sql); });
  };
  ReplayLoop(workload, plan, write, read, out);
  SOPR_RETURN_NOT_OK(out->check);
  SOPR_RETURN_NOT_OK(workload.CheckFinal(
      plan, out->committed,
      [&client](const std::string& sql) { return client->Query(sql); }));
  client->Close();
  return ReopenCheck(wal_dir, live.Close(), nullptr, nullptr);
}

}  // namespace

Replay RunReplay(ReplayMode mode, const Workload& workload, uint64_t seed,
                 const Plan& plan, const std::string& wal_dir) {
  Replay out;
  Status status;
  switch (mode) {
    case ReplayMode::kEngine:
      status = EngineReplay(workload, seed, plan, wal_dir, &out);
      break;
    case ReplayMode::kScheduler:
      status = SchedulerReplay(workload, seed, plan, wal_dir, &out);
      break;
    case ReplayMode::kWire:
      status = WireReplay(workload, seed, plan, wal_dir, &out);
      break;
  }
  if (!status.ok() && out.check.ok()) out.check = status;
  return out;
}

}  // namespace e2e
}  // namespace sopr
