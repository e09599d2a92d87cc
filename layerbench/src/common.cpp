#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace layerbench {

const Clock::time_point kProcessStart = Clock::now();

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double proc_status_mb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  const std::size_t len = std::strlen(field);
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtod(line + len + 1, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Result::fail_op(const std::string& why, std::uint64_t n) {
  failed += n;
  std::fprintf(stderr, "layerbench: FAILED operation: %s\n", why.c_str());
}

void Result::fail_check(const std::string& why) {
  broken = true;
  std::fprintf(stderr, "layerbench: FAILED check: %s\n", why.c_str());
}

int SpanRecorder::open(const char* name, int parent, std::uint64_t op) {
  const double start = us_since(kProcessStart);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start, -1.0, parent, op});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::close(int id) {
  const double end = us_since(kProcessStart);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_us = end;
}

double SpanRecorder::ms(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return (s.end_us - s.start_us) / 1000.0;
}

bool SpanRecorder::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(f, "{\"workload\":\"%s\",\"time_unit\":\"us\",\"spans\":[\n",
               workload_.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\":%zu,\"name\":\"%s\",\"start\":%.3f,\"end\":%.3f,"
                 "\"parent\":%d,\"op\":%llu}\n",
                 i == 0 ? "" : ",", i, s.name, s.start_us, s.end_us, s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace layerbench
