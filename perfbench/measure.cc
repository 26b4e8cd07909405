#include "measure.h"

#include <dirent.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace quaestor::perfbench {

Pct PercentileUs(std::vector<int64_t>* samples, double p) {
  Pct out;
  out.n = samples->size();
  if (samples->empty()) return out;
  std::sort(samples->begin(), samples->end());
  const double exact = p * static_cast<double>(out.n);
  size_t rank = static_cast<size_t>(exact);
  if (static_cast<double>(rank) < exact) ++rank;
  rank = std::clamp<size_t>(rank, 1, out.n);
  out.value = static_cast<double>((*samples)[rank - 1]) / 1000.0;
  return out;
}

Pct SlicedPercentileUs(std::vector<std::vector<int64_t>>* slices, double p) {
  Pct out;
  std::vector<double> per_slice;
  for (std::vector<int64_t>& s : *slices) {
    if (s.empty()) continue;
    const Pct one = PercentileUs(&s, p);
    per_slice.push_back(one.value);
    out.n += one.n;
  }
  out.value = MidMean(std::move(per_slice));
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double MidMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() / 4;
  double sum = 0.0;
  for (size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * drop);
}

std::map<pid_t, int64_t> TaskCpuNs() {
  std::map<pid_t, int64_t> out;
  const double ns_per_tick = 1e9 / static_cast<double>(sysconf(_SC_CLK_TCK));
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return out;
  while (dirent* ent = readdir(dir)) {
    if (ent->d_name[0] < '0' || ent->d_name[0] > '9') continue;
    std::ifstream in(std::string("/proc/self/task/") + ent->d_name + "/stat");
    std::string line;
    if (!std::getline(in, line)) continue;
    // Fields after the parenthesised command name start at field 3 (state);
    // utime and stime are fields 14 and 15.
    const size_t close = line.rfind(')');
    if (close == std::string::npos || close + 2 > line.size()) continue;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    long long utime = 0;
    long long stime = 0;
    for (int i = 3; i <= 15 && rest >> field; ++i) {
      if (i == 14) utime = std::atoll(field.c_str());
      if (i == 15) stime = std::atoll(field.c_str());
    }
    out[static_cast<pid_t>(std::atoi(ent->d_name))] = static_cast<int64_t>(
        static_cast<double>(utime + stime) * ns_per_tick);
  }
  closedir(dir);
  return out;
}

HostTicks ReadHostTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": the sum over all CPUs
  HostTicks t;
  int64_t v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<double>(std::atoll(line.c_str() + 6)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace quaestor::perfbench
