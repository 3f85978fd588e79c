#include "bench_report.h"

#include <fstream>
#include <iomanip>
#include <iostream>
#include <utility>

#include "linalg/kernels.h"
#include "util/thread_pool.h"

namespace ips {

BenchReport::BenchReport(std::string name) : name_(std::move(name)) {
  json_.BeginObject().Key("bench").String(name_);
  json_.Key("machine").BeginObject();
  json_.Key("isa").String(kernels::ActiveIsaName());
  json_.Key("avx2_available").Bool(kernels::Avx2Available());
  json_.Key("hardware_threads").Uint(ThreadPool::DefaultThreadCount());
  json_.EndObject();
  std::cout << "bench " << name_ << " (isa " << kernels::ActiveIsaName()
            << ", " << ThreadPool::DefaultThreadCount()
            << " hardware threads)\n\n";
}

void BenchReport::AtLeast(std::string name, double value, double threshold,
                          bool enforced) {
  gates_.push_back(
      {std::move(name), value, ">=", threshold, value >= threshold, enforced});
}

void BenchReport::AtMost(std::string name, double value, double threshold) {
  gates_.push_back(
      {std::move(name), value, "<=", threshold, value <= threshold, true});
}

void BenchReport::Holds(std::string name, bool value) {
  gates_.push_back({std::move(name), value ? 1.0 : 0.0, "==", 1.0, value,
                    true});
}

int BenchReport::Finish() {
  bool failed = false;
  json_.Key("gates").BeginArray();
  for (const Gate& gate : gates_) {
    json_.BeginObject().Key("name").String(gate.name);
    json_.Key("value").Double(gate.value);
    json_.Key("op").String(gate.op);
    json_.Key("threshold").Double(gate.threshold);
    json_.Key("pass").Bool(gate.pass);
    json_.Key("enforced").Bool(gate.enforced);
    json_.EndObject();
    std::cout << (gate.pass ? "OK   " : "FAIL ") << std::left
              << std::setw(44) << gate.name << std::right << std::setw(10)
              << gate.value << " " << gate.op << " " << gate.threshold
              << (gate.enforced ? "" : "  (not enforced)") << "\n";
    failed = failed || (gate.enforced && !gate.pass);
  }
  json_.EndArray().EndObject();
  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream out(path);
  out << json_.Take();
  if (!out.flush()) {
    std::cerr << "bench " << name_ << ": cannot write " << path << "\n";
    return 1;
  }
  std::cout << "wrote " << path << "\n";
  return failed ? 1 : 0;
}

}  // namespace ips
