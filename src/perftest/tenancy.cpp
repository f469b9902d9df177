#include "perftest/tenancy.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "os/policies.hpp"
#include "verbs/verbs.hpp"

namespace cord::perftest {
namespace {

using nic::Cqe;
using nic::SendWr;
using sim::Time;

/// Payload of a scale write and of a victim ping.
constexpr std::size_t kMsgSize = 64;
/// Pause between a victim's pings.
constexpr Time kVictimGap = sim::us(15);
/// The attacker's write size and outstanding-write window.
constexpr std::size_t kAttackerMsg = 256;
constexpr std::uint32_t kAttackerWindow = 64;
/// Attacker budgets when policies are installed.
constexpr double kAttackerOpsPerSec = 250e3;   // OpRateQuota override
constexpr double kAttackerBytesPerSec = 32e6;  // QosTokenBucket override (shape)
constexpr std::uint32_t kMaxLiveMrs = 8;       // RegistrationQuota live cap
constexpr double kRegsPerSec = 2000.0;         // RegistrationQuota refill

std::uintptr_t uptr(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

verbs::DataplaneMode mode_of(bool cord) {
  return cord ? verbs::DataplaneMode::kCord : verbs::DataplaneMode::kBypass;
}

/// A connected RC QP pair, wired with direct NIC state transitions
/// (out-of-band control plane: establishment cost is out of scope for
/// these steady-state scenarios).
nic::QueuePair* link(os::Host& a, os::Host& b, nic::QpConfig qca,
                     nic::QpConfig qcb) {
  nic::QueuePair* qa = a.nic().create_qp(qca);
  nic::QueuePair* qb = b.nic().create_qp(qcb);
  a.nic().modify_qp(*qa, nic::QpState::kInit);
  b.nic().modify_qp(*qb, nic::QpState::kInit);
  a.nic().modify_qp(*qa, nic::QpState::kRtr, {b.node(), qb->qpn()});
  b.nic().modify_qp(*qb, nic::QpState::kRtr, {a.node(), qa->qpn()});
  a.nic().modify_qp(*qa, nic::QpState::kRts);
  b.nic().modify_qp(*qb, nic::QpState::kRts);
  return qa;
}

Cqe check(Cqe wc, const char* who) {
  if (wc.status != nic::WcStatus::kSuccess) {
    throw std::runtime_error(std::string(who) + " completion error: " +
                             std::string(nic::to_string(wc.status)));
  }
  return wc;
}

}  // namespace

// ---------------------------------------------------------------------------
// Connection scaling
// ---------------------------------------------------------------------------

ScaleResult run_conn_scale(const core::SystemConfig& base,
                           const ScaleParams& p) {
  if (p.connections == 0 || p.ops == 0) {
    throw std::invalid_argument("scale test needs connections and ops");
  }
  if (p.window == 0 || p.window > p.connections) {
    throw std::invalid_argument("window must be in [1, connections]");
  }
  core::SystemConfig cfg = base;
  cfg.nic.icm_qp_capacity = p.icm_qp_capacity;
  cfg.nic.icm_mr_capacity = p.icm_mr_capacity;
  core::System sys(cfg);
  os::Host& cli = sys.host(0);
  os::Host& srv = sys.host(1);

  // Each side's PD and its one CQ, then the physical QP pairs. Exclusive
  // mode wires one pair per logical connection; shared mode wires the
  // pool and maps connection c onto pair c % phys, so the NIC holds only
  // the pool's contexts however many connections there are.
  const nic::ProtectionDomainId pd_c = cli.nic().alloc_pd();
  nic::CompletionQueue* cq_c = cli.nic().create_cq(4096);
  const nic::ProtectionDomainId pd_s = srv.nic().alloc_pd();
  nic::CompletionQueue* cq_s = srv.nic().create_cq(4096);
  const std::size_t phys =
      p.conn_mode == ConnMode::kShared
          ? std::min<std::size_t>(std::max(p.shared_qp_pool, 1u), p.connections)
          : p.connections;
  std::vector<nic::QueuePair*> qps;
  qps.reserve(phys);
  for (std::size_t i = 0; i < phys; ++i) {
    qps.push_back(link(cli, srv, {nic::QpType::kRC, pd_c, cq_c, cq_c},
                       {nic::QpType::kRC, pd_s, cq_s, cq_s}));
  }
  std::vector<LogicalConn> conns(p.connections);
  for (std::size_t c = 0; c < p.connections; ++c) {
    conns[c] = LogicalConn{static_cast<std::uint32_t>(c % phys)};
  }

  // One source MR per physical QP client-side: in exclusive mode the WQE
  // fetch then touches as many MR contexts as there are connections (the
  // MR side of the context working set); shared mode touches only the
  // bounded pool's worth. One remote-writable sink server-side.
  std::vector<std::byte> src(kMsgSize, std::byte{0xA5});
  std::vector<std::byte> sink(kMsgSize, std::byte{0});
  std::vector<const nic::MemoryRegion*> mrs;
  mrs.reserve(phys);
  for (std::size_t i = 0; i < phys; ++i) {
    mrs.push_back(&cli.nic().register_mr(pd_c, src.data(), src.size(), 0));
  }
  const nic::MemoryRegion& sink_mr = srv.nic().register_mr(
      pd_s, sink.data(), sink.size(),
      nic::kAccessLocalWrite | nic::kAccessRemoteWrite);

  ScaleResult result;
  result.latency_us.reserve(p.ops);
  sys.engine().spawn(
      [](core::System& sys, const std::vector<LogicalConn>& conns,
         std::vector<nic::QueuePair*>& qps, nic::CompletionQueue& cq,
         std::vector<const nic::MemoryRegion*>& mrs,
         const nic::MemoryRegion& sink_mr, std::uintptr_t src_addr,
         std::uintptr_t sink_addr, const ScaleParams& p,
         ScaleResult& result) -> sim::Task<> {
        verbs::Context ctx(sys.host(0), 0,
                           sys.options(mode_of(p.cord), /*tenant=*/1));
        sim::Engine& eng = sys.engine();
        std::vector<Time> post_t(p.ops, 0);
        std::size_t posted = 0, done = 0;
        std::uint32_t outstanding = 0;
        while (done < p.ops) {
          while (outstanding < p.window && posted < p.ops) {
            const LogicalConn& lc = conns[posted % p.connections];
            SendWr wr;
            wr.wr_id = posted;
            wr.opcode = nic::Opcode::kRdmaWrite;
            wr.sge = {src_addr, static_cast<std::uint32_t>(kMsgSize),
                      mrs[lc.phys]->lkey};
            wr.remote_addr = sink_addr;
            wr.rkey = sink_mr.rkey;
            post_t[posted] = eng.now();
            const int rc = co_await ctx.post_send(*qps[lc.phys], std::move(wr));
            if (rc != 0) throw std::runtime_error("scale post_send failed");
            ++posted;
            ++outstanding;
          }
          const Cqe wc = check(co_await ctx.wait_one(cq), "scale");
          result.latency_us.add(sim::to_us(eng.now() - post_t[wc.wr_id]));
          ++done;
          --outstanding;
        }
      }(sys, conns, qps, *cq_c, mrs, sink_mr, uptr(src.data()),
        uptr(sink.data()), p, result));
  sys.engine().run();

  result.avg_us = result.latency_us.mean();
  result.p50_us = result.latency_us.percentile(50);
  result.p99_us = result.latency_us.percentile(99);
  const nic::IcmCache::Stats qs = cli.nic().icm_qp_cache().stats();
  const nic::IcmCache::Stats ms = cli.nic().icm_mr_cache().stats();
  result.icm_qp_hits = qs.hits;
  result.icm_qp_misses = qs.misses;
  result.icm_qp_evictions = qs.evictions;
  result.icm_mr_hits = ms.hits;
  result.icm_mr_misses = ms.misses;
  result.icm_mr_evictions = ms.evictions;
  result.physical_qps = phys;
  result.conn_table_bytes = conns.size() * sizeof(LogicalConn);
  result.clamped_events = sys.engine().clamped_events();
  if (result.latency_us.count() == 0) {
    throw std::runtime_error("scale test produced no samples");
  }
  return result;
}

// ---------------------------------------------------------------------------
// Noisy neighbor
// ---------------------------------------------------------------------------

namespace {

/// Victim v: small signaled writes to the quiet host, paced by a gap, each
/// ping's post-to-completion time recorded. Runs on its own core with its
/// own QP + CQ; the only thing it shares with the attacker is the NIC.
sim::Task<> victim_loop(core::System& sys, const NoisyParams& p,
                        std::size_t core_idx, os::TenantId tenant,
                        nic::QueuePair& qp, nic::CompletionQueue& cq,
                        std::uint32_t lkey, std::uintptr_t src,
                        std::uintptr_t dst, std::uint32_t rkey,
                        sim::Samples& out) {
  verbs::Context ctx(sys.host(0), core_idx, sys.options(mode_of(p.cord), tenant));
  sim::Engine& eng = sys.engine();
  for (std::size_t i = 0; i < p.victim_pings; ++i) {
    const Time t0 = eng.now();
    SendWr wr;
    wr.wr_id = i;
    wr.opcode = nic::Opcode::kRdmaWrite;
    wr.sge = {src, static_cast<std::uint32_t>(kMsgSize), lkey};
    wr.remote_addr = dst;
    wr.rkey = rkey;
    const int rc = co_await ctx.post_send(qp, std::move(wr));
    if (rc != 0) throw std::runtime_error("victim post_send failed");
    (void)check(co_await ctx.wait_one(cq), "victim");
    out.add(sim::to_us(eng.now() - t0));
    co_await eng.delay(kVictimGap);
  }
}

/// The attacker's data-plane flood: a deep window of signaled writes
/// round-robin over more QPs than the ICM cache holds, so every doorbell
/// misses and evicts victim contexts. Policy denials (-EAGAIN) are
/// counted and backed off; QoS shaping stalls the posting core.
sim::Task<> attacker_loop(core::System& sys, const NoisyParams& p,
                          os::TenantId tenant,
                          std::vector<nic::QueuePair*>& qps,
                          nic::CompletionQueue& cq,
                          std::vector<const nic::MemoryRegion*>& mrs,
                          std::uintptr_t src, std::uintptr_t dst,
                          std::uint32_t rkey, NoisyResult& res) {
  verbs::Context ctx(sys.host(0), p.victims, sys.options(mode_of(p.cord), tenant));
  sim::Engine& eng = sys.engine();
  std::size_t next = 0;
  std::uint32_t outstanding = 0;
  std::uint64_t wr_id = 0;
  while (true) {
    while (eng.now() < p.duration && outstanding < kAttackerWindow) {
      SendWr wr;
      wr.wr_id = wr_id++;
      wr.opcode = nic::Opcode::kRdmaWrite;
      wr.sge = {src, static_cast<std::uint32_t>(kAttackerMsg), mrs[next]->lkey};
      wr.remote_addr = dst;
      wr.rkey = rkey;
      nic::QueuePair& qp = *qps[next];
      next = (next + 1) % qps.size();
      const int rc = co_await ctx.post_send(qp, std::move(wr));
      if (rc == 0) {
        ++outstanding;
      } else {
        ++res.attacker_denied;
        co_await eng.delay(sim::ns(500));
      }
    }
    if (outstanding == 0) {
      if (eng.now() >= p.duration) break;
      co_await eng.delay(sim::ns(500));
      continue;
    }
    (void)check(co_await ctx.wait_one(cq), "attacker");
    ++res.attacker_ops;
    --outstanding;
  }
}

/// The attacker's control-plane churn: register/deregister in a tight
/// loop. Registration is kernel-mediated even in bypass mode, so the
/// RegistrationQuota bites here regardless of dataplane mode — the one
/// lever a bypass deployment retains.
sim::Task<> churn_loop(core::System& sys, const NoisyParams& p,
                       os::TenantId tenant, nic::ProtectionDomainId pd,
                       void* buf, NoisyResult& res) {
  verbs::Context ctx(sys.host(0), p.victims + 1,
                     sys.options(mode_of(p.cord), tenant));
  sim::Engine& eng = sys.engine();
  while (eng.now() < p.duration) {
    const nic::MemoryRegion* mr =
        co_await ctx.reg_mr(pd, buf, 4096, nic::kAccessLocalWrite);
    if (mr == nullptr) {
      ++res.attacker_reg_denied;
      co_await eng.delay(sim::us(2));
      continue;
    }
    ++res.attacker_regs;
    (void)co_await ctx.dereg_mr(mr->lkey);
  }
}

}  // namespace

NoisyResult run_noisy_neighbor(const core::SystemConfig& base,
                               const NoisyParams& p) {
  if (p.victims == 0 || p.attacker_qps == 0) {
    throw std::invalid_argument("noisy-neighbor needs victims and attacker QPs");
  }
  core::SystemConfig cfg = base;
  cfg.nic.icm_qp_capacity = p.icm_qp_capacity;
  cfg.nic.icm_mr_capacity = p.icm_mr_capacity;
  // Host 0 runs every tenant; host 1 is the victims' quiet peer; host 2 is
  // the attacker's flood sink.
  core::System sys(cfg, /*host_count=*/3);
  os::Host& h0 = sys.host(0);
  os::Host& h1 = sys.host(1);
  os::Host& h2 = sys.host(2);

  const os::TenantId attacker = static_cast<os::TenantId>(p.victims + 1);
  NoisyResult res;

  if (p.policies) {
    os::PolicyChain& chain = h0.kernel().policies();
    trace::MetricsRegistry& reg = h0.kernel().metrics();
    // Bandwidth shaping: line rate by default, the attacker squeezed.
    auto& qos = static_cast<os::QosTokenBucket&>(
        chain.install(std::make_unique<os::QosTokenBucket>(
            12.5e9, std::uint64_t{1} << 20, os::QosTokenBucket::Mode::kShape)));
    qos.set_tenant_rate(attacker, kAttackerBytesPerSec);
    // Op-rate fairness over the doorbell/poll flood vectors: generous
    // default (victims busy-poll their completions), attacker capped.
    auto& oprate = static_cast<os::OpRateQuota&>(
        chain.install(std::make_unique<os::OpRateQuota>(
            5e6, 64,
            os::OpRateQuota::kind_bit(os::DataplaneOp::Kind::kPostSend) |
                os::OpRateQuota::kind_bit(os::DataplaneOp::Kind::kPollCq),
            reg)));
    oprate.set_tenant_rate(attacker, kAttackerOpsPerSec);
    // Registration churn: few live MRs, slow refill.
    chain.install(std::make_unique<os::RegistrationQuota>(
        kMaxLiveMrs, kRegsPerSec, /*burst_regs=*/4, reg));
    // Reachability: victims may touch host 1, the attacker host 2.
    auto& acl = static_cast<os::SecurityAcl&>(
        chain.install(std::make_unique<os::SecurityAcl>()));
    for (std::size_t v = 0; v < p.victims; ++v) {
      acl.register_tenant(static_cast<os::TenantId>(1 + v));
      acl.allow(static_cast<os::TenantId>(1 + v), h1.node());
    }
    acl.register_tenant(attacker);
    acl.allow(attacker, h2.node());
  }

  // --- Out-of-band setup (direct NIC state, no simulated cost) ---------
  const nic::ProtectionDomainId pd0 = h0.nic().alloc_pd();
  const nic::ProtectionDomainId pd1 = h1.nic().alloc_pd();
  const nic::ProtectionDomainId pd2 = h2.nic().alloc_pd();
  nic::CompletionQueue* cq1 = h1.nic().create_cq(64);
  nic::CompletionQueue* cq2 = h2.nic().create_cq(64);

  // Victims: one QP + CQ each to host 1, one shared source MR (a single
  // hot MR context — exactly what the attacker's thrash evicts).
  std::vector<std::byte> vsrc(kMsgSize, std::byte{0x5A});
  std::vector<std::byte> vsink(kMsgSize * p.victims, std::byte{0});
  const nic::MemoryRegion& vsrc_mr =
      h0.nic().register_mr(pd0, vsrc.data(), vsrc.size(), 0);
  const nic::MemoryRegion& vsink_mr = h1.nic().register_mr(
      pd1, vsink.data(), vsink.size(),
      nic::kAccessLocalWrite | nic::kAccessRemoteWrite);
  std::vector<nic::QueuePair*> vqps;
  std::vector<nic::CompletionQueue*> vcqs;
  for (std::size_t v = 0; v < p.victims; ++v) {
    nic::CompletionQueue* cq = h0.nic().create_cq(64);
    vcqs.push_back(cq);
    vqps.push_back(link(h0, h1,
                        {nic::QpType::kRC, pd0, cq, cq, 64, 64, 0, nullptr},
                        {nic::QpType::kRC, pd1, cq1, cq1, 64, 64, 0, nullptr}));
  }

  // Attacker: many QPs to host 2 (more than the ICM QP cache holds), one
  // MR per QP (more than the MR cache holds), one shared CQ.
  std::vector<std::byte> asrc(kAttackerMsg, std::byte{0xEE});
  std::vector<std::byte> asink(kAttackerMsg, std::byte{0});
  const nic::MemoryRegion& asink_mr = h2.nic().register_mr(
      pd2, asink.data(), asink.size(),
      nic::kAccessLocalWrite | nic::kAccessRemoteWrite);
  nic::CompletionQueue* acq = h0.nic().create_cq(4096);
  std::vector<nic::QueuePair*> aqps;
  std::vector<const nic::MemoryRegion*> amrs;
  for (std::size_t i = 0; i < p.attacker_qps; ++i) {
    aqps.push_back(link(h0, h2,
                        {nic::QpType::kRC, pd0, acq, acq, 16, 16, 0, nullptr},
                        {nic::QpType::kRC, pd2, cq2, cq2, 16, 16, 0, nullptr}));
    amrs.push_back(
        &h0.nic().register_mr(pd0, asrc.data(), asrc.size(), 0));
  }
  std::vector<std::byte> churn_buf(4096, std::byte{0});

  // --- Run: every root on host 0 ---------------------------------------
  std::vector<sim::Samples> per_victim(p.victims);
  sim::Engine& eng = sys.engine();
  for (std::size_t v = 0; v < p.victims; ++v) {
    eng.spawn(victim_loop(sys, p, v, static_cast<os::TenantId>(1 + v),
                          *vqps[v], *vcqs[v], vsrc_mr.lkey, uptr(vsrc.data()),
                          uptr(vsink.data()) + v * kMsgSize, vsink_mr.rkey,
                          per_victim[v]));
  }
  eng.spawn(attacker_loop(sys, p, attacker, aqps, *acq, amrs,
                          uptr(asrc.data()), uptr(asink.data()), asink_mr.rkey,
                          res));
  eng.spawn(churn_loop(sys, p, attacker, pd0, churn_buf.data(), res));
  sys.engine().run();

  res.victim_us.reserve(p.victims * p.victim_pings);
  for (const sim::Samples& s : per_victim) {
    for (const double x : s.values()) res.victim_us.add(x);
  }
  res.victim_avg_us = res.victim_us.mean();
  res.victim_p50_us = res.victim_us.percentile(50);
  res.victim_p99_us = res.victim_us.percentile(99);
  const nic::IcmCache::Stats qs = h0.nic().icm_qp_cache().stats();
  res.icm_qp_misses = qs.misses;
  res.icm_qp_evictions = qs.evictions;
  res.clamped_events = sys.engine().clamped_events();
  if (res.victim_us.count() == 0) {
    throw std::runtime_error("noisy-neighbor produced no victim samples");
  }
  return res;
}

}  // namespace cord::perftest
