// The report every JSON bench writes: BENCH_<name>.json opens with the
// bench name and the machine it ran on, carries the bench's own result
// sections, and ends with one row per acceptance gate. A bench records
// all of its gates before Finish, so one run evaluates every gate, and
// main returns Finish's status.
//
//   BenchReport report("kernels");
//   report.json().Key("rates").BeginArray() ... .EndArray();
//   report.AtLeast("batched_topk.speedup", speedup, 4.0);
//   return report.Finish();
//
// Layout: {"bench", "machine": {"isa", "avx2_available",
// "hardware_threads"}, <result sections>, "gates": [{"name", "value",
// "op", "threshold", "pass", "enforced"}]}.

#ifndef IPS_BENCH_BENCH_REPORT_H_
#define IPS_BENCH_BENCH_REPORT_H_

#include <string>
#include <vector>

#include "util/json.h"
#include "util/status.h"

namespace ips {

/// Prints "<what>: <status>" to stderr and exits 1: a bench whose engine
/// cannot be built or queried has no numbers to report.
[[noreturn]] void Die(const std::string& what, const Status& status);

class BenchReport {
 public:
  explicit BenchReport(std::string name);

  /// Writer positioned inside the top-level object, for the result
  /// sections.
  JsonWriter& json() { return json_; }

  /// Gate passing when value >= threshold. An unenforced gate is
  /// reported but cannot fail the run.
  void AtLeast(std::string name, double value, double threshold,
               bool enforced = true);
  /// Gate passing when value <= threshold.
  void AtMost(std::string name, double value, double threshold);
  /// Yes/no gate: value 1 or 0, passing at 1.
  void Holds(std::string name, bool value);

  /// Writes the gates and the file BENCH_<name>.json, prints one OK or
  /// FAIL line per gate, and returns 1 when an enforced gate failed (or
  /// the file could not be written), else 0.
  int Finish();

 private:
  struct Gate {
    std::string name;
    double value;
    const char* op;
    double threshold;
    bool pass;
    bool enforced;
  };

  std::string name_;
  JsonWriter json_;
  std::vector<Gate> gates_;
};

}  // namespace ips

#endif  // IPS_BENCH_BENCH_REPORT_H_
