#include "spans.hpp"

#include <atomic>
#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<std::uint32_t> g_next_tid{1};

thread_local std::uint64_t tl_parent = 0;  // innermost open span on this thread

std::uint32_t this_tid() {
  thread_local const std::uint32_t tid = g_next_tid.fetch_add(1);
  return tid;
}

}  // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::record(Span span) {
  if (span.id == 0) span.id = g_next_span_id.fetch_add(1);
  if (span.tid == 0) span.tid = this_tid();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::drain() {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::int64_t unit) : tracer_(tracer) {
  if (!tracer_) return;
  span_.name = name;
  span_.id = g_next_span_id.fetch_add(1);
  span_.parent = tl_parent;
  span_.tid = this_tid();
  span_.unit = unit;
  tl_parent = span_.id;
  span_.start_ns = tracer_->now_ns();
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  span_.end_ns = tracer_->now_ns();
  tl_parent = span_.parent;
  tracer_->record(span_);
}

void Tracer::Scope::count(const char* key, double value) {
  if (!tracer_ || span_.n_counters == static_cast<int>(span_.counters.size())) return;
  span_.counters[static_cast<std::size_t>(span_.n_counters++)] = {key, value};
}

std::map<std::string, double> summarize(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  for (const Span& s : spans) {
    const std::string name = s.name;
    out[name] += s.ms();
    out[name + ".calls"] += 1.0;
    out["self." + name] += s.ms();
    for (int c = 0; c < s.n_counters; ++c) {
      out[name + "." + s.counters[static_cast<std::size_t>(c)].first] +=
          s.counters[static_cast<std::size_t>(c)].second;
    }
    // Children run on their parent's thread, strictly nested and one at a
    // time, so the parent's covered time is the sum of its children's.
    if (auto it = by_id.find(s.parent); it != by_id.end()) {
      out["self." + std::string(it->second->name)] -= s.ms();
    }
  }
  return out;
}

void write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << std::fixed << std::setprecision(3) << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"name\":\"" << s.name << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1"
        << ",\"tid\":" << s.tid << ",\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"unit\":" << s.unit;
    for (int c = 0; c < s.n_counters; ++c) {
      out << ",\"" << s.counters[static_cast<std::size_t>(c)].first
          << "\":" << s.counters[static_cast<std::size_t>(c)].second;
    }
    out << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
