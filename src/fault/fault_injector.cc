#include "fault/fault_injector.h"

#include <algorithm>

namespace quaestor::fault {

bool FaultInjector::ShouldDrop() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.decisions++;
  if (!rng_.NextBool(profile_.drop_rate)) return false;
  stats_.dropped++;
  return true;
}

bool FaultInjector::ShouldDuplicate() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!rng_.NextBool(profile_.duplicate_rate)) return false;
  stats_.duplicated++;
  return true;
}

bool FaultInjector::ShouldReorder() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!rng_.NextBool(profile_.reorder_rate)) return false;
  stats_.reordered++;
  return true;
}

bool FaultInjector::ShouldCorrupt() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!rng_.NextBool(profile_.corrupt_rate)) return false;
  stats_.corrupted++;
  return true;
}

Micros FaultInjector::DelayFor() {
  std::lock_guard<std::mutex> lock(mu_);
  if (profile_.max_delay <= 0 || !rng_.NextBool(profile_.delay_rate)) {
    return 0;
  }
  stats_.delayed++;
  return static_cast<Micros>(
             rng_.NextUint64(static_cast<uint64_t>(profile_.max_delay))) +
         1;
}

Micros FaultInjector::LatencySpikeFor() {
  std::lock_guard<std::mutex> lock(mu_);
  if (profile_.max_latency_spike <= 0 ||
      !rng_.NextBool(profile_.latency_spike_rate)) {
    return 0;
  }
  stats_.latency_spikes++;
  return static_cast<Micros>(rng_.NextUint64(
             static_cast<uint64_t>(profile_.max_latency_spike))) +
         1;
}

void FaultInjector::Corrupt(std::string* message) {
  std::lock_guard<std::mutex> lock(mu_);
  if (message->empty()) {
    message->push_back(static_cast<char>(rng_.NextUint64(256)));
    return;
  }
  switch (rng_.NextUint64(3)) {
    case 0: {  // truncate
      message->resize(rng_.NextUint64(message->size()));
      break;
    }
    case 1: {  // flip up to 4 bytes
      const size_t flips = 1 + rng_.NextUint64(4);
      for (size_t i = 0; i < flips; ++i) {
        const size_t pos = rng_.NextUint64(message->size());
        (*message)[pos] =
            static_cast<char>((*message)[pos] ^ (1 + rng_.NextUint64(255)));
      }
      break;
    }
    default: {  // splice random bytes into the middle
      const size_t pos = rng_.NextUint64(message->size());
      const size_t len = 1 + rng_.NextUint64(8);
      std::string junk;
      for (size_t i = 0; i < len; ++i) {
        junk.push_back(static_cast<char>(rng_.NextUint64(256)));
      }
      message->insert(pos, junk);
      break;
    }
  }
}

double FaultInjector::NextDouble() {
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.NextDouble();
}

uint64_t FaultInjector::NextUint64(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  return rng_.NextUint64(n);
}

void FaultInjector::set_profile(const FaultProfile& profile) {
  std::lock_guard<std::mutex> lock(mu_);
  profile_ = profile;
}

FaultProfile FaultInjector::profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return profile_;
}

FaultStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<ResizePoint> MakeResizeSchedule(uint64_t seed, size_t num_events,
                                            size_t max_resizes,
                                            size_t max_partitions) {
  std::vector<ResizePoint> schedule;
  if (num_events == 0 || max_resizes == 0) return schedule;
  if (max_partitions == 0) max_partitions = 1;
  Rng rng(seed);
  const size_t count = 1 + rng.NextUint64(max_resizes);
  std::vector<size_t> positions;
  positions.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    positions.push_back(static_cast<size_t>(rng.NextUint64(num_events)));
  }
  std::sort(positions.begin(), positions.end());
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  schedule.reserve(positions.size());
  for (size_t pos : positions) {
    ResizePoint p;
    p.after_event = pos;
    p.query_partitions = 1 + rng.NextUint64(max_partitions);
    p.object_partitions = 1 + rng.NextUint64(max_partitions);
    schedule.push_back(p);
  }
  return schedule;
}

}  // namespace quaestor::fault
