// cord::trace — virtual-time tracing of the RDMA data path.
//
// A Tracer is a per-engine, bounded, slab-backed ring of fixed-size POD
// records. Trace points sit at the layers the paper argues about — the
// verbs API, the syscall boundary, the policy chain, and the NIC's WQE
// lifecycle (post → doorbell → DMA → wire → completion) — so a single
// work request yields a complete latency-breakdown span chain keyed by a
// correlation id that travels inside the SendWr.
//
// Cost discipline (the subsystem must never distort what it measures):
//  * When tracing is disabled the engine's tracer pointer is null, so a
//    trace point is a single predicted branch — no virtual call, no TLS,
//    no atomic. The engine hot loop itself has zero trace code.
//  * Records are 40-byte trivially-copyable PODs appended into fixed-size
//    slabs (no per-record allocation, no reallocation-and-copy of a
//    growing vector); the buffer is bounded and overflow increments a
//    drop counter instead of growing without limit.
//  * Timestamps are the engine's virtual clock, so identical simulations
//    produce byte-identical trace streams — traces are diffable artifacts,
//    not approximations.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "sim/engine.hpp"
#include "sim/units.hpp"

namespace cord::trace {

/// Where on the data path a record was emitted. The order of enumerators
/// is part of the trace format (exported traces encode the raw value).
enum class Point : std::uint8_t {
  // verbs API (user space, both modes)
  kVerbsPostSend,
  kVerbsPostRecv,
  kVerbsPollCq,
  // syscall boundary (CoRD mode only)
  kSyscallEnter,
  kSyscallExit,
  // kernel policy chain: one record per policy, arg = cpu cost (ps),
  // aux = policy index in the chain
  kPolicyEval,
  // NIC WQE lifecycle
  kWqePost,     // WQE accepted into the SQ
  kDoorbell,    // doorbell rung (MMIO reaches the device)
  kWqeFetch,    // SQ worker picked the WQE up for processing
  kDmaFetch,    // source-side PCIe DMA of the payload
  kWireTx,      // serialization onto the wire (dur = wire occupancy)
  kDmaDeliver,  // destination-side PCIe DMA into the user buffer
  kCompletion,  // CQE written (aux: 0 = sender/TX, 1 = receiver/RX)
  // completion harvesting
  kCqePoll,     // poll_cq harvested arg completions
  kInterrupt,   // completion interrupt delivered
  kCount
};

std::string_view to_string(Point p);
/// Inverse of to_string; Point::kCount for unknown names (exporter
/// round-tripping).
Point point_from_name(std::string_view name);
/// Chrome-trace category for a point ("verbs", "os", "nic").
std::string_view category(Point p);

/// One trace record. Fixed-size POD: the stream is memcmp-comparable and
/// can be dumped or diffed as raw bytes.
struct Record {
  sim::Time t = 0;           // virtual timestamp (ps)
  sim::Time dur = 0;         // span duration (0 = instant event)
  std::uint64_t arg = 0;     // point-specific payload (bytes, cost, count)
  std::uint32_t span = 0;    // WR correlation id (0 = not WR-scoped)
  std::uint32_t qpn = 0;
  std::uint32_t tenant = 0;
  Point point = Point::kVerbsPostSend;
  std::uint8_t node = 0;
  std::uint16_t aux = 0;     // point-specific (policy index, TX/RX flag)
};
static_assert(sizeof(Record) == 40);
static_assert(std::is_trivially_copyable_v<Record>);

class Tracer {
 public:
  /// Bound chosen so a full buffer is ~40 MiB: enough for ~1M records,
  /// i.e. tens of thousands of complete WR span chains.
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  explicit Tracer(sim::Engine& engine,
                  std::size_t max_records = kDefaultCapacity)
      : engine_(&engine), max_records_(max_records) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer() {
    if (engine_->tracer() == this) engine_->set_tracer(nullptr);
  }

  /// Enabling installs this tracer as the engine's active tracer, which is
  /// what arms every trace point (they test the engine's pointer, nothing
  /// else). Disabling detaches it; buffered records stay readable.
  void set_enabled(bool on) {
    enabled_ = on;
    if (on) {
      engine_->set_tracer(this);
    } else if (engine_->tracer() == this) {
      engine_->set_tracer(nullptr);
    }
  }
  bool enabled() const { return enabled_; }

  /// Fresh correlation id for one work request's span chain (never 0).
  std::uint32_t new_span() { return next_span_++; }

  /// Append a record stamped with the engine's current virtual time.
  void record(Point p, std::uint32_t span, std::uint32_t qpn,
              std::uint32_t tenant, std::uint8_t node, std::uint64_t arg = 0,
              sim::Time dur = 0, std::uint16_t aux = 0) {
    record_at(engine_->now(), p, span, qpn, tenant, node, arg, dur, aux);
  }

  /// Append a record with an explicit (possibly future-dated) timestamp —
  /// the NIC model computes wire/DMA times ahead of their occurrence.
  void record_at(sim::Time t, Point p, std::uint32_t span, std::uint32_t qpn,
                 std::uint32_t tenant, std::uint8_t node,
                 std::uint64_t arg = 0, sim::Time dur = 0,
                 std::uint16_t aux = 0) {
    Record* r = next_slot();
    if (r == nullptr) [[unlikely]] return;
    r->t = t;
    r->dur = dur;
    r->arg = arg;
    r->span = span;
    r->qpn = qpn;
    r->tenant = tenant;
    r->point = p;
    r->node = node;
    r->aux = aux;
  }

  /// Rebound the record limit (takes effect for subsequent appends; an
  /// already-larger buffer keeps its records).
  void set_capacity(std::size_t max_records) { max_records_ = max_records; }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Records rejected because the buffer was full.
  std::uint64_t dropped() const { return dropped_; }
  std::size_t capacity() const { return max_records_; }

  const Record& operator[](std::size_t i) const {
    return slabs_[i / kSlabRecords][i % kSlabRecords];
  }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < count_; ++i) fn((*this)[i]);
  }

  /// Copy the stream out (e.g. to outlive the engine, or to memcmp two
  /// runs for determinism).
  std::vector<Record> snapshot() const {
    std::vector<Record> out;
    out.reserve(count_);
    for_each([&](const Record& r) { out.push_back(r); });
    return out;
  }

  /// Forget buffered records (capacity and drop counter reset too).
  void clear() {
    count_ = 0;
    dropped_ = 0;
  }

 private:
  // 2048 * 40 B = 80 KiB per slab: below glibc's mmap threshold, so slab
  // allocation is a plain heap carve, not an mmap/munmap pair.
  static constexpr std::size_t kSlabRecords = 2048;

  Record* next_slot() {
    if (count_ >= max_records_) [[unlikely]] {
      ++dropped_;
      return nullptr;
    }
    const std::size_t slab = count_ / kSlabRecords;
    if (slab == slabs_.size()) {
      slabs_.push_back(std::make_unique<Record[]>(kSlabRecords));
    }
    return &slabs_[slab][count_++ % kSlabRecords];
  }

  sim::Engine* engine_;
  std::size_t max_records_;
  std::vector<std::unique_ptr<Record[]>> slabs_;
  std::size_t count_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint32_t next_span_ = 1;
  bool enabled_ = false;
};

}  // namespace cord::trace
