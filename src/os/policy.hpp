// CoRD policies: the point of routing the RDMA data plane through the
// kernel. A policy sees every data-plane operation *before* it reaches
// the NIC and can account it, deny it, price it (CPU cost), or pace it.
// Policies must be lightweight and non-blocking (the paper's constraint);
// the chain is evaluated synchronously inside the syscall.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "nic/types.hpp"
#include "sim/units.hpp"
#include "trace/trace.hpp"

namespace cord::os {

using TenantId = std::uint32_t;

/// A data-plane operation as seen by the kernel interposition layer.
/// kRegMr/kDeregMr are control-plane verbs, but they consume the same
/// scarce NIC resources (MR table, on-NIC MR contexts) that a hostile
/// tenant can churn, so they run through the chain too. RDMA reads and
/// atomics arrive as kPostSend — `opcode` distinguishes them.
struct DataplaneOp {
  enum class Kind : std::uint8_t { kPostSend, kPostRecv, kPollCq, kRegMr,
                                   kDeregMr };
  Kind kind = Kind::kPostSend;
  TenantId tenant = 0;
  std::uint32_t qpn = 0;
  nic::Opcode opcode = nic::Opcode::kSend;
  std::uint64_t bytes = 0;
  nic::NodeId dst_node = 0;
};

struct PolicyVerdict {
  /// Deny -> the syscall returns `error` to the application.
  bool allow = true;
  int error = 0;
  /// CPU time the policy consumed (charged to the calling core, in-kernel).
  sim::Time cpu_cost = 0;
  /// Pacing delay imposed before the doorbell (QoS shaping).
  sim::Time pace_delay = 0;
};

class Policy {
 public:
  virtual ~Policy() = default;
  virtual std::string_view name() const = 0;
  virtual PolicyVerdict on_op(const DataplaneOp& op, sim::Time now) = 0;
};

/// The kernel's per-host ordered policy list. Evaluation short-circuits on
/// the first denial; costs and pacing delays accumulate.
class PolicyChain {
 public:
  Policy& install(std::unique_ptr<Policy> policy) {
    policies_.push_back(std::move(policy));
    return *policies_.back();
  }
  bool remove(std::string_view name) {
    for (auto it = policies_.begin(); it != policies_.end(); ++it) {
      if ((*it)->name() == name) {
        policies_.erase(it);
        return true;
      }
    }
    return false;
  }
  std::size_t size() const { return policies_.size(); }
  bool empty() const { return policies_.empty(); }

  PolicyVerdict evaluate(const DataplaneOp& op, sim::Time now) {
    return evaluate(op, now, nullptr, 0, 0);
  }

  /// Traced evaluation: when `tr` is non-null, emits one kPolicyEval
  /// record per policy visited (arg = that policy's CPU cost, aux = its
  /// index in the chain) so per-policy overhead shows up in the span chain.
  PolicyVerdict evaluate(const DataplaneOp& op, sim::Time now,
                         trace::Tracer* tr, std::uint32_t span,
                         std::uint8_t node) {
    PolicyVerdict total;
    std::uint16_t idx = 0;
    for (auto& p : policies_) {
      PolicyVerdict v = p->on_op(op, now);
      if (tr != nullptr) [[unlikely]] {
        tr->record(trace::Point::kPolicyEval, span, op.qpn, op.tenant, node,
                   static_cast<std::uint64_t>(v.cpu_cost), 0, idx);
      }
      ++idx;
      total.cpu_cost += v.cpu_cost;
      total.pace_delay = std::max(total.pace_delay, v.pace_delay);
      if (!v.allow) {
        total.allow = false;
        total.error = v.error;
        break;
      }
    }
    return total;
  }

 private:
  std::vector<std::unique_ptr<Policy>> policies_;
};

}  // namespace cord::os
