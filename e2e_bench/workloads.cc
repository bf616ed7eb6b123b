// The three workloads: their schemas and rules, the seeded operation
// sequences, and the client-side models the checks compare against.
// Why each workload exists is in README.md.

#include <cstdio>
#include <map>
#include <set>

#include "bench.h"

namespace sopr {
namespace e2e {

namespace {

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Str(int64_t v) { return std::to_string(v); }

/// Assigns ids so that the sequential replay interleaves connections in
/// proportion to their lengths, then fills in the digest.
void Finish(Plan* plan) {
  struct Pos {
    double frac;
    size_t conn;
    size_t index;
  };
  std::vector<Pos> all;
  for (size_t c = 0; c < plan->conns.size(); ++c) {
    const size_t n = plan->conns[c].size();
    for (size_t i = 0; i < n; ++i) {
      all.push_back({(static_cast<double>(i) + 0.5) / static_cast<double>(n),
                     c, i});
    }
  }
  std::sort(all.begin(), all.end(), [](const Pos& x, const Pos& y) {
    return x.frac != y.frac ? x.frac < y.frac : x.conn < y.conn;
  });
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t k = 0; k < all.size(); ++k) {
    Op& op = plan->conns[all[k].conn][all[k].index];
    op.id = static_cast<uint32_t>(k);
    h = Fnv(h, op.sql);
  }
  plan->digest = h;
}

Op Write(std::string sql, bool burst_end = true) {
  Op op;
  op.kind = OpKind::kWrite;
  op.sql = std::move(sql);
  op.burst_end = burst_end;
  return op;
}

Op Read(std::string sql) {
  Op op;
  op.kind = OpKind::kRead;
  op.sql = std::move(sql);
  return op;
}

size_t Scaled(double seconds, double per_second, size_t minimum) {
  const double n = std::round(seconds * per_second);
  return std::max(minimum, static_cast<size_t>(n));
}

// The audit rule of org_cascade and snapshot_mix: one row per updated
// employee, joining the new and old images of the update's transition.
constexpr const char* kAuditTable =
    "create table salary_audit (emp_no int, old_salary double, "
    "new_salary double)";
constexpr const char* kAuditRule =
    "create rule audit when updated emp.salary "
    "then insert into salary_audit "
    "  (select n.emp_no, o.salary, n.salary "
    "   from new updated emp.salary n, old updated emp.salary o "
    "   where n.emp_no = o.emp_no)";

std::string AuditRow(int64_t emp_no, double old_salary, double new_salary) {
  return Str(emp_no) + "|" + Num(old_salary) + "|" + Num(new_salary);
}

// --- org_cascade -----------------------------------------------------------
//
// The paper's emp/dept schema: 21 departments of 20 employees each, as a
// 4-ary manager tree. Department d >= 1 is managed by employee
// p*100 + (d-1)%4 of its parent department p = (d-1)/4; department 0 has
// no manager. Employee numbers are dept*100 + i.

constexpr int kOrgDepts = 21;
constexpr int kOrgPerDept = 20;
constexpr int kOrgRaisesPerCycle = 12;
constexpr int kOrgWarmupCycles = 2;
// Cycles per nominal second on the reference machine (README.md).
constexpr double kOrgCyclesPerSecond = 5;

// Even departments pay around 40K, odd ones around 60K. Raises stay
// within +-5K, so guard42's condition (average updated salary > 50K)
// holds exactly for the odd departments and its action never finds a
// salary above 80K. Every fourth raise goes to an even department and the
// rest to odd ones, so every seed does the same rule work, and the median
// write (a raise whose guard42 action runs) sits well inside one mode of
// the latency distribution rather than between two.
double OrgBase(int dept) { return dept % 2 == 0 ? 40000 : 60000; }

int64_t OrgManagerOf(int dept) {
  const int parent = (dept - 1) / 4;
  return parent * 100 + (dept - 1) % 4;
}

class OrgCascade : public Workload {
 public:
  const char* hot_table() const override { return "emp"; }
  size_t connections() const override { return 1; }

  static std::map<int64_t, double> Salaries(uint64_t seed) {
    Rng rng(seed ^ 0x4f52474341534345ull);
    std::map<int64_t, double> salary;
    for (int d = 0; d < kOrgDepts; ++d) {
      for (int i = 0; i < kOrgPerDept; ++i) {
        salary[d * 100 + i] = OrgBase(d) - 2500 +
                              500 * static_cast<double>(rng.Below(11));
      }
    }
    return salary;
  }

  static std::string EmpValues(int64_t emp_no, double salary) {
    return "('e" + Str(emp_no) + "', " + Str(emp_no) + ", " + Num(salary) +
           ", " + Str(emp_no / 100) + ")";
  }

  static std::string DeptValues(int dept) {
    return "(" + Str(dept) + ", " + Str(dept == 0 ? -1 : OrgManagerOf(dept)) +
           ")";
  }

  std::vector<std::string> SetupScripts(uint64_t seed) const override {
    std::vector<std::string> s = {
        "create table emp (name string, emp_no int, salary double, "
        "dept_no int)",
        "create table dept (dept_no int, mgr_no int)",
        kAuditTable,
    };
    std::string depts = "insert into dept values ";
    for (int d = 0; d < kOrgDepts; ++d) {
      depts += (d ? ", " : "") + DeptValues(d);
    }
    s.push_back(depts);
    std::string emps = "insert into emp values ";
    bool first = true;
    for (const auto& [emp_no, salary] : Salaries(seed)) {
      emps += (first ? "" : ", ") + EmpValues(emp_no, salary);
      first = false;
    }
    s.push_back(emps);
    // Examples 3.1, 4.1 and 4.2 of the paper, with 4.2 given priority
    // over 4.1 as in §4.4.
    s.push_back(
        "create rule cascade31 when deleted from dept "
        "then delete from emp "
        "  where dept_no in (select dept_no from deleted dept)");
    s.push_back(
        "create rule mgrcascade41 when deleted from emp "
        "then delete from emp "
        "  where dept_no in (select dept_no from dept "
        "                    where mgr_no in (select emp_no from deleted emp)); "
        "  delete from dept "
        "  where mgr_no in (select emp_no from deleted emp)");
    s.push_back(
        "create rule guard42 when updated emp.salary "
        "if (select avg(salary) from new updated emp.salary) > 50K "
        "then delete from emp "
        "  where emp_no in (select emp_no from new updated emp.salary) "
        "    and salary > 80K");
    s.push_back("create rule priority guard42 before mgrcascade41");
    s.push_back(kAuditRule);
    // Idle rules on the same events: triggered, considered, never true —
    // each carries its own trans-info the engine keeps up to date (§4).
    static const char* const kIdle[4] = {
        "when updated emp.salary "
        "if exists (select * from new updated emp.salary where salary < 0) "
        "then delete from emp where salary < 0",
        "when deleted from emp "
        "if exists (select * from deleted emp where salary < 0) "
        "then delete from emp where salary < 0",
        "when inserted into emp "
        "if exists (select * from inserted emp where salary < 0) "
        "then delete from emp where salary < 0",
        "when deleted from dept "
        "if exists (select * from deleted dept where dept_no < 0) "
        "then delete from dept where dept_no < 0",
    };
    for (int i = 0; i < 16; ++i) {
      char name[16];
      std::snprintf(name, sizeof(name), "idle%02d", i);
      s.push_back(std::string("create rule ") + name + " " + kIdle[i % 4]);
    }
    return s;
  }

  Plan MakePlan(uint64_t seed, double seconds) const override {
    Rng rng(seed);
    std::map<int64_t, double> salary = Salaries(seed);
    std::vector<int> steps(kOrgDepts, 0);  // net raises per dept, in [-5, 5]
    std::vector<std::string> audit;

    auto total = [&](const std::set<int64_t>& gone) {
      double sum = 0;
      int64_t count = 0;
      for (const auto& [emp_no, s] : salary) {
        if (gone.count(emp_no)) continue;
        sum += s;
        ++count;
      }
      return std::make_pair(count, sum);
    };
    auto whole_read = [&](const std::set<int64_t>& gone) {
      Op op = Read("select count(*), sum(salary) from emp");
      auto [count, sum] = total(gone);
      op.want_count = count;
      op.check_sum = true;
      op.want_sum = sum;
      return op;
    };

    const size_t cycles =
        kOrgWarmupCycles + Scaled(seconds, kOrgCyclesPerSecond, 2);
    Plan plan;
    plan.conns.resize(1);
    std::vector<Op>& ops = plan.conns[0];
    for (size_t cycle = 0; cycle < cycles; ++cycle) {
      if (cycle == kOrgWarmupCycles) plan.warmup.push_back(ops.size());
      for (int r = 0; r < kOrgRaisesPerCycle; ++r) {
        // 11 even departments (0..20), 10 odd ones.
        const int d = r % 4 == 0 ? 2 * static_cast<int>(rng.Below(11))
                                 : 1 + 2 * static_cast<int>(rng.Below(10));
        int dir = rng.Chance(0.5) ? 1 : -1;
        if (steps[d] + dir > 5 || steps[d] + dir < -5) dir = -dir;
        steps[d] += dir;
        const double delta = 1000.0 * dir;
        ops.push_back(Write("update emp set salary = salary " +
                            std::string(dir > 0 ? "+" : "-") +
                            " 1000 where dept_no = " + Str(d)));
        for (int i = 0; i < kOrgPerDept; ++i) {
          const int64_t emp_no = d * 100 + i;
          audit.push_back(
              AuditRow(emp_no, salary[emp_no], salary[emp_no] + delta));
          salary[emp_no] += delta;
        }
        // The whole organisation's payroll by department, checked exactly.
        Op read = Read(
            "select dept_no, count(*), sum(salary) from emp group by dept_no");
        std::vector<double> dept_sum(kOrgDepts, 0);
        for (const auto& [emp_no, s] : salary) dept_sum[emp_no / 100] += s;
        for (int k = 0; k < kOrgDepts; ++k) {
          read.want_rows.push_back(Str(k) + "|" + Str(kOrgPerDept) + "|" +
                                   Num(dept_sum[k]));
        }
        std::sort(read.want_rows.begin(), read.want_rows.end());
        ops.push_back(read);
      }
      // Delete the manager of a department: Example 4.1 cascades down its
      // subtree (Example 3.1 follows each deleted department). Every fifth
      // cycle takes a level-1 department (five departments, 101
      // employees), the others a leaf department (one department, 21
      // employees).
      const int target = cycle % 5 == 4
                             ? static_cast<int>(rng.Between(1, 4))
                             : static_cast<int>(rng.Between(5, kOrgDepts - 1));
      const int64_t manager = OrgManagerOf(target);
      std::vector<int> subtree = {target};
      for (size_t k = 0; k < subtree.size(); ++k) {
        for (int c = 4 * subtree[k] + 1; c <= 4 * subtree[k] + 4; ++c) {
          if (c < kOrgDepts) subtree.push_back(c);
        }
      }
      std::set<int64_t> gone = {manager};
      for (int d : subtree) {
        for (int i = 0; i < kOrgPerDept; ++i) gone.insert(d * 100 + i);
      }
      ops.push_back(Write("delete from emp where emp_no = " + Str(manager)));
      ops.push_back(whole_read(gone));
      // Restore block: the cascade's victims come back as they were.
      std::string restore = "insert into dept values ";
      for (size_t k = 0; k < subtree.size(); ++k) {
        restore += (k ? ", " : "") + DeptValues(subtree[k]);
      }
      restore += "; insert into emp values ";
      bool first = true;
      for (int64_t emp_no : gone) {
        restore += (first ? "" : ", ") + EmpValues(emp_no, salary[emp_no]);
        first = false;
      }
      ops.push_back(Write(restore));
      if (cycle % 4 != 3) {
        ops.push_back(whole_read({}));
        continue;
      }
      // Every fourth restore, the client checks the top of the tree
      // (departments 0-4) with a correlated subquery: every employee
      // earns at least their department's minimum, so the answer is the
      // full count and payroll of those departments. One subquery per
      // outer row (100 x 420 row visits) makes these reads slow; they are
      // 1 read in 56, so read_p99_ms is about their median rather than
      // the machine's scheduling jitter.
      Op verify = Read(
          "select count(*), sum(salary) from emp e "
          "where dept_no <= 4 and salary >= (select min(salary) from emp f "
          "                                  where f.dept_no = e.dept_no)");
      verify.want_count = 5 * kOrgPerDept;
      verify.check_sum = true;
      for (const auto& [emp_no, s] : salary) {
        if (emp_no / 100 <= 4) verify.want_sum += s;
      }
      ops.push_back(verify);
    }

    FinalCheck emp{"select name, emp_no, salary, dept_no from emp", {}};
    for (const auto& [emp_no, s] : salary) {
      emp.rows.push_back("e" + Str(emp_no) + "|" + Str(emp_no) + "|" + Num(s) +
                         "|" + Str(emp_no / 100));
    }
    FinalCheck dept{"select dept_no, mgr_no from dept", {}};
    for (int d = 0; d < kOrgDepts; ++d) {
      dept.rows.push_back(Str(d) + "|" + Str(d == 0 ? -1 : OrgManagerOf(d)));
    }
    FinalCheck aud{"select emp_no, old_salary, new_salary from salary_audit",
                   std::move(audit)};
    plan.final_checks = {std::move(emp), std::move(dept), std::move(aud)};
    for (FinalCheck& c : plan.final_checks) {
      std::sort(c.rows.begin(), c.rows.end());
    }
    Finish(&plan);
    return plan;
  }
};

// --- wire_oltp -------------------------------------------------------------
//
// 100k indexed accounts; two connections send pipelined bursts of
// two-statement transfers, each burst followed by a point read of the
// branch directory. Every transfer
// updates its two ids in ascending order, so record locks may wait but
// never deadlock.

constexpr int64_t kAccounts = 100000;
constexpr int64_t kHotAccounts = 16;
constexpr double kHotShare = 0.02;  // per key
constexpr int kTransferBurst = 16;
constexpr int64_t kOpening = 10000000;
constexpr double kTransfersPerSecond = 6000;
// The branch directory: an indexed table the transfers never write. Each
// burst is followed by a point read of it (README.md explains why the
// reads do not go to acct).
constexpr int64_t kBranches = 1000;

std::string BranchCity(int64_t id) { return "city" + Str(id % 97); }
// Every kReportEvery-th burst of a connection is followed by the branch
// report instead of a point read: 2% of reads, so read_p99_ms is about
// the median report.
constexpr size_t kReportEvery = 50;

class WireOltp : public Workload {
 public:
  const char* hot_table() const override { return "acct"; }
  size_t connections() const override { return 2; }

  static std::vector<int64_t> Opening(uint64_t seed) {
    Rng rng(seed ^ 0x57495245504c5450ull);
    std::vector<int64_t> bal(kAccounts);
    for (int64_t& b : bal) b = kOpening + static_cast<int64_t>(rng.Below(1000));
    return bal;
  }

  std::vector<std::string> SetupScripts(uint64_t seed) const override {
    std::vector<std::string> s = {"create table acct (id int, bal int)"};
    const std::vector<int64_t> bal = Opening(seed);
    for (int64_t lo = 0; lo < kAccounts; lo += 2000) {
      std::string sql = "insert into acct values ";
      for (int64_t id = lo; id < lo + 2000; ++id) {
        sql += (id > lo ? ", (" : "(") + Str(id) + ", " +
               Str(bal[static_cast<size_t>(id)]) + ")";
      }
      s.push_back(std::move(sql));
    }
    s.push_back("create index on acct (id)");
    std::string branches = "insert into branch values ";
    for (int64_t id = 0; id < kBranches; ++id) {
      branches += (id ? ", (" : "(") + Str(id) + ", '" + BranchCity(id) + "')";
    }
    s.push_back("create table branch (id int, city string)");
    s.push_back(branches);
    s.push_back("create index on branch (id)");
    // The overdraft guard: considered on every transfer, never true
    // (MakePlan keeps every balance far above zero).
    s.push_back(
        "create rule overdraft when updated acct.bal "
        "if exists (select * from new updated acct.bal where bal < 0) "
        "then rollback");
    return s;
  }

  static int64_t Key(Rng* rng) {
    return rng->Chance(kHotShare)
               ? static_cast<int64_t>(rng->Below(kHotAccounts))
               : static_cast<int64_t>(rng->Below(kAccounts));
  }

  Plan MakePlan(uint64_t seed, double seconds) const override {
    Rng rng(seed);
    const size_t bursts_per_conn = std::max<size_t>(
        4, Scaled(seconds, kTransfersPerSecond, 64) / kTransferBurst / 2);
    Plan plan;
    plan.conns.resize(2);
    for (size_t b = 0; b < bursts_per_conn; ++b) {
      for (size_t c = 0; c < 2; ++c) {
        std::vector<Op>& ops = plan.conns[c];
        if (b == bursts_per_conn / 10) plan.warmup.push_back(ops.size());
        for (int t = 0; t < kTransferBurst; ++t) {
          int64_t from = Key(&rng), to = Key(&rng);
          while (to == from) to = Key(&rng);
          const int64_t amount = rng.Between(1, 100);
          const std::string debit = "update acct set bal = bal - " +
                                    Str(amount) + " where id = " + Str(from);
          const std::string credit = "update acct set bal = bal + " +
                                     Str(amount) + " where id = " + Str(to);
          Op op = Write(from < to ? debit + "; " + credit : credit + "; " + debit,
                        t == kTransferBurst - 1);
          op.a = from;
          op.b = to;
          op.c = amount;
          ops.push_back(std::move(op));
        }
        if (b % kReportEvery == kReportEvery - 1) {
          ops.push_back(ReportRead());
          continue;
        }
        Op read = Read("");
        read.a = static_cast<int64_t>(rng.Below(kBranches));
        read.sql = "select id, city from branch where id = " + Str(read.a);
        ops.push_back(std::move(read));
      }
    }
    // No final_checks: CheckFinal applies the committed transfers to the
    // opening balances.
    plan.seed = seed;
    Finish(&plan);
    return plan;
  }

  /// The branch report: a self-join of the directory on city. A point
  /// read takes about 0.1 ms, so the p99 of point reads alone would be
  /// the machine's scheduling jitter; one read in kReportEvery is this
  /// report (about 6 ms) instead, and read_p99_ms falls among the reports.
  static Op ReportRead() {
    Op op = Read(
        "select count(*), sum(a.id) from branch a, branch b "
        "where a.city = b.city");
    std::vector<int64_t> per_city(97, 0), id_sum(97, 0);
    for (int64_t id = 0; id < kBranches; ++id) {
      ++per_city[static_cast<size_t>(id % 97)];
      id_sum[static_cast<size_t>(id % 97)] += id;
    }
    op.want_count = 0;
    op.check_sum = true;
    for (size_t c = 0; c < 97; ++c) {
      op.want_count += per_city[c] * per_city[c];
      op.want_sum += static_cast<double>(per_city[c] * id_sum[c]);
    }
    return op;
  }

  Status CheckRead(const Op& op, const QueryResult& result,
                   ReadState* state) const override {
    if (op.want_count >= 0) return Workload::CheckRead(op, result, state);
    const std::string want = Str(op.a) + "|" + BranchCity(op.a);
    if (result.rows.size() != 1 || CanonicalRow(result.rows[0]) != want) {
      return Status::Internal("point read of branch " + Str(op.a) + " returned " +
                              std::to_string(result.rows.size()) +
                              " rows, want '" + want + "'");
    }
    return Status::OK();
  }

  Status CheckFinal(const Plan& plan,
                    const std::vector<std::vector<bool>>& committed,
                    const QueryFn& query) const override {
    std::vector<int64_t> bal = Opening(plan.seed);
    int64_t opening_sum = 0;
    for (int64_t b : bal) opening_sum += b;
    for (size_t c = 0; c < plan.conns.size(); ++c) {
      for (size_t i = 0; i < plan.conns[c].size(); ++i) {
        const Op& op = plan.conns[c][i];
        if (op.kind != OpKind::kWrite || !committed[c][i]) continue;
        bal[static_cast<size_t>(op.a)] -= op.c;
        bal[static_cast<size_t>(op.b)] += op.c;
      }
    }
    auto sum = query("select sum(bal), count(*) from acct");
    if (!sum.ok()) return sum.status();
    if (sum.value().rows.size() != 1 ||
        sum.value().rows[0].at(0).NumericAsDouble() !=
            static_cast<double>(opening_sum) ||
        sum.value().rows[0].at(1).AsInt() != kAccounts) {
      return Status::Internal("sum(bal) not conserved: got " +
                              CanonicalRow(sum.value().rows[0]) + ", want " +
                              Str(opening_sum) + "|" + Str(kAccounts));
    }
    FinalCheck want{"select id, bal from acct", {}};
    for (int64_t id = 0; id < kAccounts; ++id) {
      want.rows.push_back(Str(id) + "|" + Str(bal[static_cast<size_t>(id)]));
    }
    std::sort(want.rows.begin(), want.rows.end());
    return RunFinalChecks({want}, query);
  }
};

// --- snapshot_mix ----------------------------------------------------------
//
// 20k employees in 400 departments of 50. One writer commits 50-row
// set-oriented raises (firing the audit rule and an aggregate-condition
// rule); two readers run snapshot filter/aggregate queries over the same
// table. Raises are positive, so every reader's sums only grow.

constexpr int64_t kMixEmps = 20000;
constexpr int64_t kMixPerDept = 50;
constexpr int64_t kMixDepts = kMixEmps / kMixPerDept;
constexpr int kMixShapes = 11;  // shape 0: whole table; 1..10: dept ranges
constexpr size_t kMixWideEvery = 50;
constexpr int64_t kMixWideDepts = 10;
constexpr double kMixWritesPerSecond = 160;
constexpr double kMixReadsPerSecond = 84;  // per reader

class SnapshotMix : public Workload {
 public:
  const char* hot_table() const override { return "emp"; }
  size_t connections() const override { return 3; }

  static std::vector<double> Salaries(uint64_t seed) {
    Rng rng(seed ^ 0x534e41504d495800ull);
    std::vector<double> salary(kMixEmps);
    for (double& s : salary) s = 30000 + static_cast<double>(rng.Below(60001));
    return salary;
  }

  std::vector<std::string> SetupScripts(uint64_t seed) const override {
    std::vector<std::string> s = {
        "create table emp (name string, emp_no int, salary double, "
        "dept_no int)",
        kAuditTable,
    };
    const std::vector<double> salary = Salaries(seed);
    for (int64_t lo = 0; lo < kMixEmps; lo += 2000) {
      std::string sql = "insert into emp values ";
      for (int64_t e = lo; e < lo + 2000; ++e) {
        sql += (e > lo ? ", ('e" : "('e") + Str(e) + "', " + Str(e) + ", " +
               Num(salary[static_cast<size_t>(e)]) + ", " +
               Str(e / kMixPerDept) + ")";
      }
      s.push_back(std::move(sql));
    }
    s.push_back("create index on emp (dept_no)");
    s.push_back(kAuditRule);
    s.push_back(
        "create rule payroll_guard when updated emp.salary "
        "if (select sum(salary) from new updated emp.salary) > "
        "   (select sum(salary) from old updated emp.salary) + 1000000 "
        "then rollback");
    return s;
  }

  static Op ReaderOp(Rng* rng) {
    const int shape =
        rng->Chance(0.2) ? 0 : 1 + static_cast<int>(rng->Below(kMixShapes - 1));
    Op op;
    if (shape == 0) {
      op = Read("select count(*), sum(salary) from emp");
      op.want_count = kMixEmps;
    } else {
      const int64_t lo = (shape - 1) * (kMixDepts / (kMixShapes - 1));
      const int64_t hi = lo + kMixDepts / (kMixShapes - 1);
      op = Read("select count(*), sum(salary), max(salary) from emp "
                "where dept_no >= " + Str(lo) + " and dept_no < " + Str(hi) +
                " and salary > 0");
      op.want_count = (hi - lo) * kMixPerDept;
    }
    op.shape = shape;
    return op;
  }

  Plan MakePlan(uint64_t seed, double seconds) const override {
    Rng rng(seed);
    const size_t writes = Scaled(seconds, kMixWritesPerSecond, 40);
    const size_t reads = Scaled(seconds, kMixReadsPerSecond, 40);
    std::vector<double> salary = Salaries(seed);
    std::vector<std::string> audit;
    Plan plan;
    plan.conns.resize(3);
    // Warm-up: the writer raises every department once, in seeded order,
    // so each row has the one superseded version it keeps from then on
    // and the timed reads scan a table of steady size.
    std::vector<int64_t> sweep(kMixDepts);
    for (int64_t d = 0; d < kMixDepts; ++d) sweep[static_cast<size_t>(d)] = d;
    for (size_t k = sweep.size(); k > 1; --k) {
      std::swap(sweep[k - 1], sweep[rng.Below(k)]);
    }
    const size_t warm_writes = sweep.size();
    const size_t warm_reads = 20;
    for (size_t w = 0; w < warm_writes + writes; ++w) {
      int64_t d = w < warm_writes ? sweep[w]
                                  : static_cast<int64_t>(rng.Below(kMixDepts));
      const int64_t delta = rng.Between(1, 5);
      // One timed write in kMixWideEvery raises kMixWideDepts departments
      // at once (a range, so it scans the table); txn_p99_ms falls among
      // these writes rather than in the machine's scheduling jitter.
      int64_t depts = 1;
      std::string where = "dept_no = " + Str(d);
      if (w >= warm_writes && (w - warm_writes) % kMixWideEvery == kMixWideEvery - 1) {
        depts = kMixWideDepts;
        d = std::min(d, kMixDepts - depts);
        where = "dept_no >= " + Str(d) + " and dept_no < " + Str(d + depts);
      }
      plan.conns[0].push_back(Write("update emp set salary = salary + " +
                                    Str(delta) + " where " + where));
      for (int64_t e = d * kMixPerDept; e < (d + depts) * kMixPerDept; ++e) {
        double& s = salary[static_cast<size_t>(e)];
        audit.push_back(AuditRow(e, s, s + static_cast<double>(delta)));
        s += static_cast<double>(delta);
      }
    }
    for (size_t c = 1; c < 3; ++c) {
      for (size_t r = 0; r < warm_reads + reads; ++r) {
        plan.conns[c].push_back(ReaderOp(&rng));
      }
    }
    plan.warmup = {warm_writes, warm_reads, warm_reads};

    FinalCheck emp{"select emp_no, salary, dept_no from emp", {}};
    for (int64_t e = 0; e < kMixEmps; ++e) {
      emp.rows.push_back(Str(e) + "|" + Num(salary[static_cast<size_t>(e)]) +
                         "|" + Str(e / kMixPerDept));
    }
    FinalCheck aud{"select emp_no, old_salary, new_salary from salary_audit",
                   std::move(audit)};
    plan.final_checks = {std::move(emp), std::move(aud)};
    for (FinalCheck& c : plan.final_checks) {
      std::sort(c.rows.begin(), c.rows.end());
    }
    Finish(&plan);
    return plan;
  }

  Status CheckRead(const Op& op, const QueryResult& result,
                   ReadState* state) const override {
    SOPR_RETURN_NOT_OK(Workload::CheckRead(op, result, state));
    const double sum = result.rows[0].at(1).NumericAsDouble();
    if (state->last_sum.empty()) state->last_sum.assign(kMixShapes, -1.0);
    double& last = state->last_sum[static_cast<size_t>(op.shape)];
    if (sum < last) {
      return Status::Internal("reader saw sum(salary) decrease from " +
                              Num(last) + " to " + Num(sum) + " in: " +
                              op.sql);
    }
    last = sum;
    return Status::OK();
  }
};

}  // namespace

std::vector<const Op*> Plan::Sequential() const {
  std::vector<const Op*> out(num_ops());
  for (const auto& ops : conns) {
    for (const Op& op : ops) out[op.id] = &op;
  }
  return out;
}

std::string CanonicalRow(const Row& row) {
  std::string out;
  for (size_t i = 0; i < row.size(); ++i) {
    if (i) out += '|';
    const Value& v = row.at(i);
    if (v.is_null()) {
      out += "NULL";
    } else if (v.type() == ValueType::kInt) {
      out += Str(v.AsInt());
    } else if (v.type() == ValueType::kDouble) {
      out += Num(v.AsDouble());
    } else if (v.type() == ValueType::kString) {
      out += v.AsString();
    } else {
      out += v.AsBool() ? "true" : "false";
    }
  }
  return out;
}

Status Workload::CheckRead(const Op& op, const QueryResult& result,
                           ReadState*) const {
  if (!op.want_rows.empty()) {
    std::vector<std::string> got;
    for (const Row& row : result.rows) got.push_back(CanonicalRow(row));
    std::sort(got.begin(), got.end());
    if (got != op.want_rows) {
      return Status::Internal("result differs from the model for: " + op.sql);
    }
    return Status::OK();
  }
  if (op.want_count < 0) return Status::OK();
  if (result.rows.size() != 1 || result.rows[0].size() < 2) {
    return Status::Internal("unexpected result shape for: " + op.sql);
  }
  const Value& count = result.rows[0].at(0);
  if (count.type() != ValueType::kInt || count.AsInt() != op.want_count) {
    return Status::Internal("count(*) = " + CanonicalRow(result.rows[0]) +
                            ", want " + Str(op.want_count) + " for: " + op.sql);
  }
  if (op.check_sum && result.rows[0].at(1).NumericAsDouble() != op.want_sum) {
    return Status::Internal("sum(salary) = " +
                            Num(result.rows[0].at(1).NumericAsDouble()) +
                            ", want " + Num(op.want_sum) + " for: " + op.sql);
  }
  return Status::OK();
}

Status Workload::CheckFinal(const Plan& plan,
                            const std::vector<std::vector<bool>>& committed,
                            const QueryFn& query) const {
  for (size_t c = 0; c < plan.conns.size(); ++c) {
    for (size_t i = 0; i < plan.conns[c].size(); ++i) {
      if (plan.conns[c][i].kind == OpKind::kWrite && !committed[c][i]) {
        return Status::Internal(
            "write " + std::to_string(plan.conns[c][i].id) +
            " did not commit; the model assumes every write commits");
      }
    }
  }
  return RunFinalChecks(plan.final_checks, query);
}

Status RunFinalChecks(const std::vector<FinalCheck>& checks,
                      const QueryFn& query) {
  for (const FinalCheck& check : checks) {
    auto result = query(check.sql);
    if (!result.ok()) return result.status();
    std::vector<std::string> got;
    got.reserve(result.value().rows.size());
    for (const Row& row : result.value().rows) got.push_back(CanonicalRow(row));
    std::sort(got.begin(), got.end());
    if (got == check.rows) continue;
    size_t k = 0;
    while (k < got.size() && k < check.rows.size() && got[k] == check.rows[k]) {
      ++k;
    }
    return Status::Internal(
        "final state differs from the model for '" + check.sql + "': " +
        std::to_string(got.size()) + " rows, want " +
        std::to_string(check.rows.size()) + "; first difference: got '" +
        (k < got.size() ? got[k] : "<end>") + "', want '" +
        (k < check.rows.size() ? check.rows[k] : "<end>") + "'");
  }
  return Status::OK();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "org_cascade") return std::make_unique<OrgCascade>();
  if (name == "wire_oltp") return std::make_unique<WireOltp>();
  if (name == "snapshot_mix") return std::make_unique<SnapshotMix>();
  return nullptr;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  return self;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx =
      rank < 1 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[idx];
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

}  // namespace e2e
}  // namespace sopr
