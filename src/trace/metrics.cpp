#include "trace/metrics.hpp"

#include <cstdio>
#include <stdexcept>

namespace cord::trace {

MetricsRegistry::Entry& MetricsRegistry::get_or_create(std::string_view name,
                                                       std::uint32_t label,
                                                       Kind kind) {
  // Transparent lookup first (no string copy on the re-registration path).
  const auto it = entries_.find(Key{std::string(name), label});
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error("metric '" + std::string(name) +
                             "' re-registered with a different kind");
    }
    return it->second;
  }
  Entry& e = entries_[Key{std::string(name), label}];
  e.kind = kind;
  return e;
}

const MetricsRegistry::Entry* MetricsRegistry::find(std::string_view name,
                                                    std::uint32_t label,
                                                    Kind kind) const {
  const auto it = entries_.find(Key{std::string(name), label});
  if (it == entries_.end() || it->second.kind != kind) return nullptr;
  return &it->second;
}

Counter& MetricsRegistry::counter(std::string_view name, std::uint32_t label) {
  return get_or_create(name, label, Kind::kCounter).counter;
}

sim::LogHistogram& MetricsRegistry::histogram(std::string_view name,
                                              std::uint32_t label) {
  return get_or_create(name, label, Kind::kHistogram).histogram;
}

void MetricsRegistry::callback_gauge(std::string_view name,
                                     std::function<std::int64_t()> fn,
                                     std::uint32_t label) {
  get_or_create(name, label, Kind::kCallback).callback = std::move(fn);
}

const Counter* MetricsRegistry::find_counter(std::string_view name,
                                             std::uint32_t label) const {
  const Entry* e = find(name, label, Kind::kCounter);
  return e == nullptr ? nullptr : &e->counter;
}

const sim::LogHistogram* MetricsRegistry::find_histogram(
    std::string_view name, std::uint32_t label) const {
  const Entry* e = find(name, label, Kind::kHistogram);
  return e == nullptr ? nullptr : &e->histogram;
}

std::int64_t MetricsRegistry::gauge_value(std::string_view name,
                                          std::uint32_t label) const {
  const Entry* e = find(name, label, Kind::kCallback);
  return e != nullptr && e->callback ? e->callback() : 0;
}

std::vector<std::uint32_t> MetricsRegistry::labels(std::string_view name) const {
  std::vector<std::uint32_t> out;
  for (const auto& [key, entry] : entries_) {
    (void)entry;
    if (key.name == name && key.label != kNoLabel) out.push_back(key.label);
  }
  return out;  // map order: already ascending per name
}

namespace {

void label_suffix(char* buf, std::size_t n, std::uint32_t label) {
  if (label == kNoLabel) {
    buf[0] = '\0';
  } else {
    std::snprintf(buf, n, "{tenant=%u}", label);
  }
}

}  // namespace

std::string MetricsRegistry::text() const {
  std::string out;
  char line[256];
  char label[24];
  for (const auto& [key, e] : entries_) {
    label_suffix(label, sizeof(label), key.label);
    switch (e.kind) {
      case Kind::kCounter:
        std::snprintf(line, sizeof(line), "%s%s %llu\n", key.name.c_str(),
                      label, static_cast<unsigned long long>(e.counter.value));
        break;
      case Kind::kCallback:
        std::snprintf(line, sizeof(line), "%s%s %lld\n", key.name.c_str(),
                      label,
                      static_cast<long long>(e.callback ? e.callback() : 0));
        break;
      case Kind::kHistogram: {
        const sim::LogHistogram& h = e.histogram;
        std::snprintf(line, sizeof(line),
                      "%s%s count=%llu mean=%.1f p50=%.1f p99=%.1f max=%llu\n",
                      key.name.c_str(), label,
                      static_cast<unsigned long long>(h.count()), h.mean(),
                      h.percentile(50.0), h.percentile(99.0),
                      static_cast<unsigned long long>(h.max()));
        break;
      }
    }
    out += line;
  }
  return out;
}

}  // namespace cord::trace
