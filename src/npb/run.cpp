#include "npb/bodies.hpp"
#include "npb/internal.hpp"
#include "npb/npb.hpp"

namespace cord::npb {

std::string_view to_string(Kernel k) {
  switch (k) {
    case Kernel::kEP: return "EP";
    case Kernel::kIS: return "IS";
    case Kernel::kCG: return "CG";
    case Kernel::kMG: return "MG";
    case Kernel::kFT: return "FT";
    case Kernel::kLU: return "LU";
    case Kernel::kSP: return "SP";
    case Kernel::kBT: return "BT";
  }
  return "?";
}

Result run(mpi::World& world, const RunConfig& cfg) {
  const internal::BodyContext ctx{cfg.cls, cfg.verify, cfg.iterations};
  const mpi::World::Traffic before = world.traffic();
  Result result;
  result.elapsed = world.run([&ctx, &cfg](mpi::Rank& r) -> sim::Task<> {
    switch (cfg.kernel) {
      case Kernel::kEP: co_await internal::ep_body(r, ctx); break;
      case Kernel::kIS: co_await internal::is_body(r, ctx); break;
      case Kernel::kCG: co_await internal::cg_body(r, ctx); break;
      case Kernel::kMG: co_await internal::mg_body(r, ctx); break;
      case Kernel::kFT: co_await internal::ft_body(r, ctx); break;
      case Kernel::kLU: co_await internal::lu_body(r, ctx); break;
      case Kernel::kSP: co_await internal::sp_body(r, ctx); break;
      case Kernel::kBT: co_await internal::bt_body(r, ctx); break;
    }
  });
  const mpi::World::Traffic after = world.traffic();
  result.messages = after.messages - before.messages;
  result.bytes = after.bytes - before.bytes;
  return result;
}

}  // namespace cord::npb
