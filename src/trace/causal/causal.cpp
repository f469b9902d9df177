#include "trace/causal/causal.hpp"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <unordered_map>

namespace cord::trace::causal {

namespace {

constexpr sim::Time kMissing = -1;

double us(sim::Time ps) { return static_cast<double>(ps) / 1e6; }

double pct(sim::Time part, sim::Time whole) {
  return whole <= 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

void appendf(std::string& out, const char* fmt, auto... args) {
  char buf[256];
  const int n = std::snprintf(buf, sizeof buf, fmt, args...);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

std::string_view stage_name(Stage s) {
  switch (s) {
    case Stage::kUserPost: return "user-post";
    case Stage::kKernel: return "kernel";
    case Stage::kNicSched: return "nic-sched";
    case Stage::kDmaFetch: return "dma-fetch";
    case Stage::kWire: return "wire";
    case Stage::kDeliver: return "deliver";
    case Stage::kRemoteCqe: return "remote-cqe";
    case Stage::kAck: return "ack";
    case Stage::kCount: break;
  }
  return "?";
}

Stage Waterfall::binding() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < kStageCount; ++i) {
    if (stages[i].span > stages[best].span) best = i;
  }
  return static_cast<Stage>(best);
}

bool waterfall_before(const Waterfall& a, const Waterfall& b) {
  const auto key = [](const Waterfall& w) {
    return std::tuple(w.post_t, w.qpn, w.end_t, w.bytes, w.opcode, w.tenant,
                      w.src_node, w.dst_node, w.status);
  };
  const auto ka = key(a), kb = key(b);
  if (ka != kb) return ka < kb;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const auto sa = std::tuple(a.stages[i].span, a.stages[i].service);
    const auto sb = std::tuple(b.stages[i].span, b.stages[i].service);
    if (sa != sb) return sa < sb;
  }
  return false;
}

std::optional<Waterfall> build_waterfall(std::span<const Record> chain) {
  Waterfall w;
  // Milestone closing times (kMissing = the chain lacks this stage).
  // Retried WRs re-emit NIC-stage records; the *last* occurrence closes
  // the stage (max), while the anchor is the *first* post (min).
  sim::Time post_min = kMissing;     // kVerbsPostSend
  sim::Time wqe_min = kMissing;      // kWqePost (bypass anchor fallback)
  sim::Time all_min = kMissing;
  sim::Time syscall_t = kMissing;    // closes user-post
  sim::Time wqe_post_t = kMissing;   // closes kernel
  sim::Time sched_end = kMissing;    // closes nic-sched (kWqeFetch end)
  sim::Time dma_end = kMissing;      // closes dma-fetch
  sim::Time wire_end = kMissing;     // closes wire
  sim::Time deliver_end = kMissing;  // closes deliver
  sim::Time remote_t = kMissing;     // closes remote-cqe
  sim::Time end_t = kMissing;        // sender completion == end
  sim::Time doorbell_dur = 0;        // reserved service inside nic-sched
  sim::Time fetch_dur = 0;

  for (const Record& r : chain) {
    w.span = r.span;
    w.tenant = std::max(w.tenant, r.tenant);
    if (all_min == kMissing || r.t < all_min) all_min = r.t;
    switch (r.point) {
      case Point::kVerbsPostSend:
        if (post_min == kMissing || r.t < post_min) {
          post_min = r.t;
          w.qpn = r.qpn;
          w.src_node = r.node;
          w.bytes = r.arg;
          w.opcode = r.aux;
        }
        break;
      case Point::kSyscallEnter:
        syscall_t = std::max(syscall_t, r.t);
        break;
      case Point::kWqePost:
        wqe_post_t = std::max(wqe_post_t, r.t);
        if (wqe_min == kMissing || r.t < wqe_min) wqe_min = r.t;
        if (post_min == kMissing) {  // NIC-only chain: adopt identity here
          w.qpn = r.qpn;
          w.src_node = r.node;
          w.bytes = r.arg;
        }
        break;
      case Point::kDoorbell:
        doorbell_dur = r.dur;
        break;
      case Point::kWqeFetch:
        if (r.t + r.dur > sched_end) {
          sched_end = r.t + r.dur;
          fetch_dur = r.dur;
        }
        break;
      case Point::kDmaFetch:
        dma_end = std::max(dma_end, r.t + r.dur);
        break;
      case Point::kWireTx:
        wire_end = std::max(wire_end, r.t + r.dur);
        break;
      case Point::kDmaDeliver:
        deliver_end = std::max(deliver_end, r.t + r.dur);
        w.dst_node = r.node;
        break;
      case Point::kCompletion:
        if (r.aux == 0) {  // sender/TX completion: the chain's end
          if (r.t >= end_t) {
            end_t = r.t;
            w.status = static_cast<std::uint32_t>(r.arg);
          }
        } else {  // receiver/RX completion
          remote_t = std::max(remote_t, r.t);
          w.dst_node = r.node;
        }
        break;
      default:
        break;
    }
  }
  if (end_t == kMissing) return std::nullopt;  // chain not complete
  const sim::Time anchor =
      post_min != kMissing ? post_min
                           : (wqe_min != kMissing ? wqe_min : all_min);
  if (anchor == kMissing || end_t < anchor) return std::nullopt;
  w.post_t = anchor;
  w.end_t = end_t;

  // In bypass mode the verbs library drives the NIC directly: there is no
  // syscall milestone, so user-space work runs all the way to the WQE
  // post and the kernel stage collapses to zero.
  const std::array<sim::Time, kStageCount> closes = {
      syscall_t != kMissing ? syscall_t : wqe_post_t,  // user-post
      wqe_post_t,                                      // kernel
      sched_end,                                       // nic-sched
      dma_end,                                         // dma-fetch
      wire_end,                                        // wire
      deliver_end,                                     // deliver
      remote_t,                                        // remote-cqe
      end_t,                                           // ack (always ends)
  };
  // Monotone clamp onto [anchor, end]: missing milestones collapse to
  // zero width, out-of-order ones are absorbed by the later stage, and
  // the widths telescope to end - anchor exactly.
  sim::Time cur = anchor;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const sim::Time raw = closes[i];
    const sim::Time eff =
        raw == kMissing ? cur : std::clamp(raw, cur, end_t);
    w.stages[i].span = eff - cur;
    w.stages[i].service = w.stages[i].span;
    cur = eff;
  }
  // Service/queue split for the NIC scheduling stage: the doorbell MMIO
  // and the reserved WQE-processing slot are service; the remainder is SQ
  // residency + pipeline queueing (under deep tx_depth this is where the
  // wait shows up). Doorbell-coalesced posts carry no kDoorbell record —
  // their ride on an in-flight burst is queueing, which falls out of the
  // arithmetic naturally.
  StageSlice& sched = w.stages[static_cast<std::size_t>(Stage::kNicSched)];
  sched.service = std::min(sched.span, doorbell_dur + fetch_dur);
  sched.queue = sched.span - sched.service;
  return w;
}

std::vector<Waterfall> build_waterfalls(std::span<const Record> records) {
  std::unordered_map<std::uint32_t, std::vector<Record>> chains;
  for (const Record& r : records) {
    if (r.span != 0) chains[r.span].push_back(r);
  }
  std::vector<Waterfall> out;
  out.reserve(chains.size());
  for (const auto& [span, chain] : chains) {
    if (auto w = build_waterfall(chain)) out.push_back(*w);
  }
  std::sort(out.begin(), out.end(), waterfall_before);
  return out;
}

void CriticalPath::add(const Waterfall& w) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    stage_span[i] += w.stages[i].span;
    stage_service[i] += w.stages[i].service;
    stage_queue[i] += w.stages[i].queue;
  }
  binding[static_cast<std::size_t>(w.binding())]++;
  total_e2e += w.e2e();
  spans++;
}

Stage CriticalPath::dominant() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < kStageCount; ++i) {
    if (stage_span[i] > stage_span[best]) best = i;
  }
  return static_cast<Stage>(best);
}

CriticalPath critical_path(std::span<const Waterfall> waterfalls) {
  CriticalPath cp;
  for (const Waterfall& w : waterfalls) cp.add(w);
  return cp;
}

std::string waterfall_text(const Waterfall& w) {
  std::string out;
  appendf(out, "e2e %.3f us  qpn 0x%x  tenant %u  %llu B  op %u  node %u",
          us(w.e2e()), w.qpn, w.tenant,
          static_cast<unsigned long long>(w.bytes),
          static_cast<unsigned>(w.opcode),
          static_cast<unsigned>(w.src_node));
  if (w.dst_node != w.src_node) {
    appendf(out, " -> %u", static_cast<unsigned>(w.dst_node));
  }
  out += '\n';
  constexpr int kBarWidth = 32;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const StageSlice& s = w.stages[i];
    if (s.span == 0) continue;
    // Integer bar arithmetic: deterministic across platforms.
    const int bar = w.e2e() > 0
                        ? static_cast<int>((s.span * kBarWidth) / w.e2e())
                        : 0;
    const std::string_view name = stage_name(static_cast<Stage>(i));
    appendf(out, "  %-10.*s %9.3f us %5.1f%%  svc %9.3f  q %9.3f  |",
            static_cast<int>(name.size()), name.data(), us(s.span),
            pct(s.span, w.e2e()), us(s.service), us(s.queue));
    out.append(static_cast<std::size_t>(bar), '#');
    out += '\n';
  }
  return out;
}

std::string critical_path_report(const CriticalPath& cp) {
  std::string out;
  if (cp.spans == 0) {
    out = "critical-path: no completed spans\n";
  } else {
    const std::string_view dom = stage_name(cp.dominant());
    appendf(out,
            "critical-path: %llu spans, total e2e %.3f us, mean %.3f us, "
            "dominant stage %.*s\n",
            static_cast<unsigned long long>(cp.spans), us(cp.total_e2e),
            us(cp.total_e2e) / static_cast<double>(cp.spans),
            static_cast<int>(dom.size()), dom.data());
    appendf(out, "  %-10s %8s %12s %12s %12s %s\n", "stage", "share",
            "total(us)", "svc(us)", "queue(us)", "binding");
    for (std::size_t i = 0; i < kStageCount; ++i) {
      if (cp.stage_span[i] == 0 && cp.binding[i] == 0) continue;
      const std::string_view name = stage_name(static_cast<Stage>(i));
      appendf(out, "  %-10.*s %7.1f%% %12.3f %12.3f %12.3f %llu (%.1f%%)\n",
              static_cast<int>(name.size()), name.data(),
              pct(cp.stage_span[i], cp.total_e2e), us(cp.stage_span[i]),
              us(cp.stage_service[i]), us(cp.stage_queue[i]),
              static_cast<unsigned long long>(cp.binding[i]),
              100.0 * static_cast<double>(cp.binding[i]) /
                  static_cast<double>(cp.spans));
    }
  }
  return out;
}

}  // namespace cord::trace::causal
