// Concrete CoRD policies: QoS token bucket (shaping or policing),
// security ACL, per-tenant message-size quota, and a traffic-stats
// collector for observability. These are the OS-control capabilities the
// paper lists (QoS, security, isolation, observability) that kernel
// bypass makes impossible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "os/policy.hpp"
#include "sim/stats.hpp"

namespace cord::os {

/// The balance of one token bucket, shared by the rate policies below. A
/// fresh bucket starts full: without that, a tenant first seen at t=0 has
/// zero tokens and zero elapsed time to refill them, and its very first op
/// is denied under zero contention.
struct TokenBucket {
  double tokens = 0.0;
  sim::Time last_refill = 0;
  bool primed = false;

  /// Credit the time since the last refill at `rate` tokens/s, capped at
  /// `burst` (a fresh bucket fills to `burst`).
  void refill(sim::Time now, double rate, double burst) {
    if (!primed) {
      tokens = burst;
      last_refill = now;
      primed = true;
    }
    tokens = std::min(burst, tokens + sim::to_sec(now - last_refill) * rate);
    last_refill = now;
  }
};

/// Per-tenant token bucket on posted send bytes.
/// In shaping mode the verdict carries a pacing delay; in policing mode
/// the op is denied with EAGAIN and the application must retry.
///
/// Tenants are small dense integers in this repo (see Kernel's
/// tenant_metrics_), so buckets live in a flat vector indexed by tenant
/// id: the per-op path is one bounds check and an indexed load, not two
/// std::map walks — required once the noisy-neighbor scenarios push
/// thousands of tenants through the chain.
class QosTokenBucket final : public Policy {
 public:
  enum class Mode { kShape, kPolice };

  QosTokenBucket(double bytes_per_sec, std::uint64_t burst_bytes,
                 Mode mode = Mode::kShape)
      : rate_(bytes_per_sec), burst_bytes_(burst_bytes), mode_(mode) {}

  std::string_view name() const override { return "qos-token-bucket"; }

  /// Set a per-tenant rate override (bytes/s); 0 restores the default.
  void set_tenant_rate(TenantId t, double bytes_per_sec) {
    slot(t).rate_override = bytes_per_sec <= 0.0 ? 0.0 : bytes_per_sec;
  }

  PolicyVerdict on_op(const DataplaneOp& op, sim::Time now) override {
    if (op.kind != DataplaneOp::Kind::kPostSend) return {.cpu_cost = kCheckCost};
    Bucket& b = slot(op.tenant);
    const double rate = b.rate_override > 0.0 ? b.rate_override : rate_;
    TokenBucket& tb = b.balance;
    tb.refill(now, rate, static_cast<double>(burst_bytes_));
    const auto bytes = static_cast<double>(op.bytes);
    if (mode_ == Mode::kPolice) {
      if (tb.tokens < bytes) {
        return {.allow = false, .error = -11 /*EAGAIN*/, .cpu_cost = kCheckCost};
      }
      tb.tokens -= bytes;
      return {.cpu_cost = kCheckCost};
    }
    // Shape: the balance may go negative (debt); the pacing delay covers
    // exactly the debt, and the next refill credits the waited time
    // without double counting.
    tb.tokens -= bytes;
    if (tb.tokens >= 0.0) return {.cpu_cost = kCheckCost};
    const auto delay = static_cast<sim::Time>(-tb.tokens / rate * sim::kSecond);
    return {.cpu_cost = kCheckCost, .pace_delay = delay};
  }

 private:
  static constexpr sim::Time kCheckCost = sim::ns(35);
  struct Bucket {
    TokenBucket balance;
    double rate_override = 0.0;  ///< 0 = use the policy-wide default rate
  };
  Bucket& slot(TenantId t) {
    if (t >= buckets_.size()) buckets_.resize(t + 1);
    return buckets_[t];
  }
  double rate_;
  std::uint64_t burst_bytes_;
  Mode mode_;
  std::vector<Bucket> buckets_;
};

/// Allow-list of (tenant, destination node). Unlisted destinations are
/// denied with EPERM — the kernel revoking a tenant's reach at runtime,
/// which bypassed RDMA cannot do once a QP is connected.
class SecurityAcl final : public Policy {
 public:
  std::string_view name() const override { return "security-acl"; }

  void allow(TenantId t, nic::NodeId dst) { allowed_.insert({t, dst}); }
  /// Revoking makes the allow-list authoritative for the tenant even if
  /// it was never registered: in non-strict mode an unknown tenant passes
  /// every check, so a bare erase would leave the revocation a no-op —
  /// the tenant must become known for the (now absent) entry to matter.
  void revoke(TenantId t, nic::NodeId dst) {
    allowed_.erase({t, dst});
    known_tenants_.insert(t);
  }
  /// Tenants not mentioned at all are unrestricted unless strict mode.
  void set_strict(bool strict) { strict_ = strict; }

  PolicyVerdict on_op(const DataplaneOp& op, sim::Time) override {
    if (op.kind != DataplaneOp::Kind::kPostSend) return {.cpu_cost = kCheckCost};
    const bool listed = allowed_.contains({op.tenant, op.dst_node});
    const bool tenant_known = known_tenants_.contains(op.tenant);
    if (listed) return {.cpu_cost = kCheckCost};
    if (!strict_ && !tenant_known) return {.cpu_cost = kCheckCost};
    ++denied_;
    return {.allow = false, .error = -1 /*EPERM*/, .cpu_cost = kCheckCost};
  }

  /// Registering a tenant makes the allow-list authoritative for it.
  void register_tenant(TenantId t) { known_tenants_.insert(t); }
  std::uint64_t denied() const { return denied_; }

 private:
  static constexpr sim::Time kCheckCost = sim::ns(40);
  std::set<std::pair<TenantId, nic::NodeId>> allowed_;
  std::set<TenantId> known_tenants_;
  bool strict_ = false;
  std::uint64_t denied_ = 0;
};

/// Isolation: cap the message size a tenant may post (e.g. to bound
/// head-of-line blocking on the shared wire).
class MessageSizeQuota final : public Policy {
 public:
  explicit MessageSizeQuota(std::uint64_t default_max) : default_max_(default_max) {}
  std::string_view name() const override { return "message-size-quota"; }

  void set_tenant_max(TenantId t, std::uint64_t max_bytes) {
    tenant_max_[t] = max_bytes;
  }

  PolicyVerdict on_op(const DataplaneOp& op, sim::Time) override {
    if (op.kind != DataplaneOp::Kind::kPostSend) return {.cpu_cost = kCheckCost};
    const auto it = tenant_max_.find(op.tenant);
    const std::uint64_t cap = it == tenant_max_.end() ? default_max_ : it->second;
    if (op.bytes > cap) {
      return {.allow = false, .error = -90 /*EMSGSIZE*/, .cpu_cost = kCheckCost};
    }
    return {.cpu_cost = kCheckCost};
  }

 private:
  static constexpr sim::Time kCheckCost = sim::ns(25);
  std::uint64_t default_max_;
  std::map<TenantId, std::uint64_t> tenant_max_;
};

/// Isolation: per-tenant *operation-rate* quota — a token bucket on op
/// count rather than bytes, over a configurable set of op kinds. This is
/// the defense against the noisy-neighbor floods that exhaust shared NIC
/// resources regardless of payload size: doorbell floods (kPostSend of
/// tiny messages), CQ-poll storms (kPollCq), and receive-posting churn.
/// Ops beyond the rate are denied with EAGAIN and never reach the NIC.
class OpRateQuota final : public Policy {
 public:
  static constexpr std::uint32_t kind_bit(DataplaneOp::Kind k) {
    return 1u << static_cast<std::uint32_t>(k);
  }

  /// `kinds` is a bitmask of kind_bit(...) values; ops of other kinds
  /// pass through untouched (still paying the check cost).
  OpRateQuota(double ops_per_sec, std::uint64_t burst_ops, std::uint32_t kinds)
      : rate_(ops_per_sec), burst_ops_(burst_ops), kinds_(kinds) {}

  std::string_view name() const override { return "op-rate-quota"; }

  /// Per-tenant rate override (ops/s); 0 restores the default.
  void set_tenant_rate(TenantId t, double ops_per_sec) {
    slot(t).rate_override = ops_per_sec <= 0.0 ? 0.0 : ops_per_sec;
  }

  PolicyVerdict on_op(const DataplaneOp& op, sim::Time now) override {
    if ((kinds_ & kind_bit(op.kind)) == 0) return {.cpu_cost = kCheckCost};
    Bucket& b = slot(op.tenant);
    const double rate = b.rate_override > 0.0 ? b.rate_override : rate_;
    b.balance.refill(now, rate, static_cast<double>(burst_ops_));
    if (b.balance.tokens < 1.0) {
      ++denied_;
      return {.allow = false, .error = -11 /*EAGAIN*/, .cpu_cost = kCheckCost};
    }
    b.balance.tokens -= 1.0;
    return {.cpu_cost = kCheckCost};
  }

  std::uint64_t denied() const { return denied_; }

 private:
  static constexpr sim::Time kCheckCost = sim::ns(30);
  struct Bucket {
    TokenBucket balance;
    double rate_override = 0.0;
  };
  Bucket& slot(TenantId t) {
    if (t >= buckets_.size()) buckets_.resize(t + 1);
    return buckets_[t];
  }
  double rate_;
  std::uint64_t burst_ops_;
  std::uint32_t kinds_;
  std::uint64_t denied_ = 0;
  std::vector<Bucket> buckets_;
};

/// Isolation: per-tenant memory-registration quota. Caps the number of
/// live MRs (denied with ENOMEM at the cap) and paces register/deregister
/// churn with a token bucket (EAGAIN beyond the rate). MR churn is the
/// third noisy-neighbor vector: every registration pins pages, occupies
/// an MR-table slot, and installs an on-NIC MR context that competes for
/// ICM cache capacity with every other tenant's.
class RegistrationQuota final : public Policy {
 public:
  RegistrationQuota(std::uint32_t max_live_mrs, double regs_per_sec,
                    std::uint64_t burst_regs)
      : max_live_(max_live_mrs), rate_(regs_per_sec), burst_regs_(burst_regs) {}

  std::string_view name() const override { return "registration-quota"; }

  void set_tenant_max_live(TenantId t, std::uint32_t max_live) {
    slot(t).max_live_override = max_live;
    slot(t).has_live_override = true;
  }

  PolicyVerdict on_op(const DataplaneOp& op, sim::Time now) override {
    if (op.kind == DataplaneOp::Kind::kDeregMr) {
      Bucket& b = slot(op.tenant);
      if (b.live > 0) --b.live;
      return {.cpu_cost = kCheckCost};
    }
    if (op.kind != DataplaneOp::Kind::kRegMr) return {.cpu_cost = kCheckCost};
    Bucket& b = slot(op.tenant);
    const std::uint32_t cap = b.has_live_override ? b.max_live_override : max_live_;
    if (b.live >= cap) {
      ++denied_;
      return {.allow = false, .error = -12 /*ENOMEM*/, .cpu_cost = kCheckCost};
    }
    b.balance.refill(now, rate_, static_cast<double>(burst_regs_));
    if (b.balance.tokens < 1.0) {
      ++denied_;
      return {.allow = false, .error = -11 /*EAGAIN*/, .cpu_cost = kCheckCost};
    }
    b.balance.tokens -= 1.0;
    ++b.live;
    return {.cpu_cost = kCheckCost};
  }

  std::uint64_t denied() const { return denied_; }
  std::uint32_t live(TenantId t) { return slot(t).live; }

 private:
  static constexpr sim::Time kCheckCost = sim::ns(30);
  struct Bucket {
    TokenBucket balance;
    std::uint32_t live = 0;
    std::uint32_t max_live_override = 0;
    bool has_live_override = false;
  };
  Bucket& slot(TenantId t) {
    if (t >= buckets_.size()) buckets_.resize(t + 1);
    return buckets_[t];
  }
  std::uint32_t max_live_;
  double rate_;
  std::uint64_t burst_regs_;
  std::uint64_t denied_ = 0;
  std::vector<Bucket> buckets_;
};

/// Observability: per-tenant op/byte counters, harvested without touching
/// the application (the `rdma-system`-style accounting the paper cites).
///
/// Tenants are small dense integers in this repo, so the store is a flat
/// vector indexed by tenant id — the per-op path is one bounds check and
/// an indexed load, matching the O(1) data-plane lookups elsewhere.
class StatsCollector final : public Policy {
 public:
  std::string_view name() const override { return "stats-collector"; }

  struct TenantStats {
    std::uint64_t post_sends = 0;
    std::uint64_t post_recvs = 0;
    std::uint64_t polls = 0;
    std::uint64_t bytes = 0;
    std::uint64_t reg_mrs = 0;
    std::uint64_t dereg_mrs = 0;
  };

  PolicyVerdict on_op(const DataplaneOp& op, sim::Time) override {
    TenantStats& s = slot(op.tenant);
    switch (op.kind) {
      case DataplaneOp::Kind::kPostSend:
        ++s.post_sends;
        s.bytes += op.bytes;
        break;
      case DataplaneOp::Kind::kPostRecv:
        ++s.post_recvs;
        break;
      case DataplaneOp::Kind::kPollCq:
        ++s.polls;
        break;
      case DataplaneOp::Kind::kRegMr:
        ++s.reg_mrs;
        break;
      case DataplaneOp::Kind::kDeregMr:
        ++s.dereg_mrs;
        break;
    }
    return {.cpu_cost = kCheckCost};
  }

  const TenantStats& tenant(TenantId t) { return slot(t); }

 private:
  static constexpr sim::Time kCheckCost = sim::ns(30);

  TenantStats& slot(TenantId t) {
    if (t >= stats_.size()) stats_.resize(t + 1);
    return stats_[t];
  }

  std::vector<TenantStats> stats_;
};

}  // namespace cord::os
