#include "ocl/kernel.hpp"

namespace mcl::ocl {

void WorkItemCtx::barrier() const {
  core::check(barrier_fn_ != nullptr, core::Status::InvalidOperation,
              "barrier() requires the fiber executor (set needs_barrier on the "
              "kernel, or select ExecutorKind::Fiber)");
  (*barrier_fn_)();
}

void Program::add(KernelDef def) {
  core::check(!def.name.empty(), core::Status::InvalidKernelName,
              "kernel name must be nonempty");
  core::check(def.scalar != nullptr || def.workgroup != nullptr,
              core::Status::BuildProgramFailure,
              "kernel '" + def.name + "' needs a scalar or workgroup body");
  core::check(def.simd == nullptr || def.scalar != nullptr,
              core::Status::BuildProgramFailure,
              "kernel '" + def.name +
                  "': simd form requires a scalar fallback for remainders");
  core::check(!def.needs_barrier || def.scalar != nullptr,
              core::Status::BuildProgramFailure,
              "kernel '" + def.name + "': needs_barrier applies to scalar form");
  kernels_[def.name] = std::move(def);
}

const KernelDef& Program::lookup(const std::string& name) const {
  auto it = kernels_.find(name);
  core::check(it != kernels_.end(), core::Status::InvalidKernelName,
              "no kernel named '" + name + "'");
  return it->second;
}

std::vector<std::string> Program::kernel_names() const {
  std::vector<std::string> names;
  names.reserve(kernels_.size());
  for (const auto& [name, def] : kernels_) names.push_back(name);
  return names;
}

Program& Program::builtin() {
  static Program program;
  return program;
}

}  // namespace mcl::ocl
