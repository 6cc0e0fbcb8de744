#include "bddfc/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "bddfc/obs/trace.h"

namespace bddfc::obs {

void Histogram::Record(uint64_t sample) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  size_t bucket = 0;
  while (bucket + 1 < kBuckets && (uint64_t{1} << bucket) < sample) ++bucket;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

void Histogram::MergeFrom(const HistogramPoint& point) {
  count_.fetch_add(point.count, std::memory_order_relaxed);
  sum_.fetch_add(point.sum, std::memory_order_relaxed);
  for (const auto& [bucket, n] : point.buckets) {
    if (bucket < kBuckets) {
      buckets_[bucket].fetch_add(n, std::memory_order_relaxed);
    }
  }
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return *instance;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) {
    snap.counters.push_back({name, c->Value()});
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges.push_back({name, g->Value()});
  }
  for (const auto& [name, h] : histograms_) {
    HistogramPoint p;
    p.name = name;
    p.count = h->Count();
    p.sum = h->Sum();
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      uint64_t n = h->BucketCount(i);
      if (n != 0) p.buckets.emplace_back(i, n);
    }
    snap.histograms.push_back(std::move(p));
  }
  return snap;  // maps iterate in name order: the snapshot is sorted
}

void MetricsRegistry::MergeFrom(const MetricsSnapshot& snap) {
  for (const MetricPoint& p : snap.counters) GetCounter(p.name)->Add(p.value);
  for (const MetricPoint& p : snap.gauges) GetGauge(p.name)->Set(p.value);
  for (const HistogramPoint& p : snap.histograms) {
    GetHistogram(p.name)->MergeFrom(p);
  }
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const MetricPoint& p : counters) {
    out += p.name + " " + std::to_string(p.value) + "\n";
  }
  for (const MetricPoint& p : gauges) {
    out += p.name + " " + std::to_string(p.value) + "\n";
  }
  for (const HistogramPoint& h : histograms) {
    out += h.name + " count=" + std::to_string(h.count) +
           " sum=" + std::to_string(h.sum);
    for (const auto& [bucket, n] : h.buckets) {
      out += " le2^" + std::to_string(bucket) + "=" + std::to_string(n);
    }
    out += "\n";
  }
  return out;
}

namespace {

void AppendPoints(std::string* out, const std::vector<MetricPoint>& points) {
  for (size_t i = 0; i < points.size(); ++i) {
    if (i) *out += ",";
    *out += "\"" + points[i].name + "\":" + std::to_string(points[i].value);
  }
}

}  // namespace

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  AppendPoints(&out, counters);
  out += "},\"gauges\":{";
  AppendPoints(&out, gauges);
  out += "},\"histograms\":{";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramPoint& h = histograms[i];
    if (i) out += ",";
    out += "\"" + h.name + "\":{\"count\":" + std::to_string(h.count) +
           ",\"sum\":" + std::to_string(h.sum) + ",\"buckets\":[";
    for (size_t j = 0; j < h.buckets.size(); ++j) {
      if (j) out += ",";
      out += "[";
      out += std::to_string(h.buckets[j].first);
      out += ",";
      out += std::to_string(h.buckets[j].second);
      out += "]";
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

bool WriteArtifact(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  out.close();  // flushes, so a full disk fails here too
  if (out) return true;
  std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
  return false;
}

bool WriteProcessExports(const std::string& trace_out,
                         const std::string& metrics_out) {
  const bool trace_ok =
      trace_out.empty() ||
      WriteArtifact(trace_out, Tracer::Global().ExportChromeJson() + "\n");
  return (metrics_out.empty() ||
          WriteArtifact(metrics_out,
                        MetricsRegistry::Global().Snapshot().ToJson() +
                            "\n")) &&
         trace_ok;
}

}  // namespace bddfc::obs
