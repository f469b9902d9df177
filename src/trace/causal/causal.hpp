// cord::trace::causal — causal latency attribution over span chains.
//
// The tracer (trace/trace.hpp) emits one span-correlated record per
// pipeline stage of a work request: post → syscall → policy → WQE post →
// doorbell → fetch → DMA → wire → deliver → remote CQE → sender CQE.
// This module reconstructs each WR's event chain and folds it into a
// *latency waterfall*: an ordered list of stage durations that provably
// sum to the end-to-end latency.
//
// Conservation by construction: every stage is delimited by two
// milestones on one monotone timeline from the post anchor to the sender
// completion. A stage's duration is `close(i) - close(i-1)` after
// clamping each close time into [previous close, end], so the durations
// telescope — their sum is exactly `end - anchor`, bit-exact in integer
// picoseconds, for every chain (including chains with missing stages,
// which collapse to zero width, and retried chains, where the *last*
// occurrence of a milestone closes its stage).
//
// Service vs queueing: the NIC plumbs its resource-reservation durations
// into the records (kDoorbell.dur = MMIO latency, kWqeFetch.dur = the
// reserved WQE-processing slot, kDmaFetch.dur = the summed PCIe
// occupancy of the payload's chunks). The nic-sched stage — where SQ
// residency and pipeline contention live — is split exactly into that
// reserved service time and the queueing remainder. Stages that are pure
// reserved occupancy (DMA, wire, deliver) report their whole width as
// service; contention there shows up as inflated occupancy at chunk
// granularity (see DESIGN.md §16).
//
// Determinism: waterfalls are pure functions of the record multiset and
// are ordered by content (never by span id, which is a per-tracer
// counter), so analysis output is identical across shard counts.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/units.hpp"
#include "trace/trace.hpp"

namespace cord::sim {
struct ShardStats;
}

namespace cord::trace::causal {

/// Waterfall stages, in causal order. Every completed WR's end-to-end
/// latency is partitioned across exactly these stages.
enum class Stage : std::uint8_t {
  kUserPost,   ///< verbs library work in user space (post → syscall entry;
               ///< in bypass mode: post → WQE reaches the NIC)
  kKernel,     ///< syscall crossing + policy chain + kernel driver
               ///< (CoRD mode only; zero width in bypass)
  kNicSched,   ///< WQE post → processing done: doorbell MMIO, SQ
               ///< residency, pipeline queueing, WQE processing slot
  kDmaFetch,   ///< source-side PCIe DMA occupancy of the payload
  kWire,       ///< residual DMA pipelining + serialization + propagation
               ///< up to the last chunk leaving the wire
  kDeliver,    ///< destination-side PCIe DMA into the user buffer
  kRemoteCqe,  ///< receive processing until the responder's CQE is written
  kAck,        ///< ACK/response return until the sender's CQE is written
  kCount
};
inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(Stage::kCount);

std::string_view stage_name(Stage s);

/// One stage's share of a waterfall. span == service + queue always.
struct StageSlice {
  sim::Time span = 0;     ///< total width on the e2e timeline
  sim::Time service = 0;  ///< reserved/working time
  sim::Time queue = 0;    ///< waiting for a contended resource
};

/// The exact latency breakdown of one completed work request.
struct Waterfall {
  std::uint32_t span = 0;    ///< correlation id (per-tracer; NOT stable
                             ///< across shard counts — never order by it)
  std::uint32_t qpn = 0;
  std::uint32_t tenant = 0;
  std::uint8_t src_node = 0;
  std::uint8_t dst_node = 0;
  std::uint16_t opcode = 0;  ///< nic::Opcode as posted (kVerbsPostSend.aux)
  std::uint32_t status = 0;  ///< sender WcStatus (kCompletion.arg)
  std::uint64_t bytes = 0;
  sim::Time post_t = 0;  ///< anchor: the verbs post (or first record)
  sim::Time end_t = 0;   ///< sender-side CQE write
  std::array<StageSlice, kStageCount> stages{};

  sim::Time e2e() const { return end_t - post_t; }
  /// Sum of stage widths. Equals e2e() for every built waterfall — the
  /// conservation invariant the tests assert bit-exactly.
  sim::Time stage_sum() const {
    sim::Time s = 0;
    for (const StageSlice& st : stages) s += st.span;
    return s;
  }
  const StageSlice& operator[](Stage s) const {
    return stages[static_cast<std::size_t>(s)];
  }
  /// The stage that bounds this WR's latency (largest width; ties go to
  /// the earliest stage). This is what the watchdog blames.
  Stage binding() const;
};

/// Shard-invariant content ordering (every field except the span id).
bool waterfall_before(const Waterfall& a, const Waterfall& b);

/// Build the waterfall of one span's records (any order; all records must
/// share one span id). Returns nullopt for incomplete chains — a chain is
/// complete once its sender-side completion (kCompletion, aux == 0) is
/// present.
std::optional<Waterfall> build_waterfall(std::span<const Record> chain);

/// Group a record stream by span and build every completed chain's
/// waterfall, ordered by content (waterfall_before) — identical output
/// for the same simulation at any shard count.
std::vector<Waterfall> build_waterfalls(std::span<const Record> records);

/// Aggregated critical-path view over a set of waterfalls: per-stage
/// total widths and how often each stage was the binding one.
struct CriticalPath {
  std::array<sim::Time, kStageCount> stage_span{};
  std::array<sim::Time, kStageCount> stage_service{};
  std::array<sim::Time, kStageCount> stage_queue{};
  std::array<std::uint64_t, kStageCount> binding{};  ///< WRs bound per stage
  sim::Time total_e2e = 0;
  std::uint64_t spans = 0;

  void add(const Waterfall& w);
  /// The stage carrying the largest total width (ties → earliest stage).
  Stage dominant() const;
};

CriticalPath critical_path(std::span<const Waterfall> waterfalls);

/// Render one waterfall as aligned text rows (stage, width, service,
/// queue, share bar). Deliberately omits the span id so reports compare
/// equal across shard counts.
std::string waterfall_text(const Waterfall& w);

/// Stage-share + binding-stage summary. When `sync` is non-null a
/// wall-clock shard-synchronization section (barrier idle from the
/// sharded run's stats — a different currency than virtual time, kept
/// clearly apart) is appended; pass nullptr for shard-invariant output.
std::string critical_path_report(const CriticalPath& cp,
                                 const sim::ShardStats* sync = nullptr);

}  // namespace cord::trace::causal
