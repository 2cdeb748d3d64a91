// Shared value types of the MiniCL runtime: memory/map flags, NDRange,
// executor selection.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/error.hpp"

namespace mcl::ocl {

/// clCreateBuffer flags (subset the paper exercises).
enum class MemFlags : std::uint32_t {
  ReadWrite = 1u << 0,      ///< CL_MEM_READ_WRITE (default)
  ReadOnly = 1u << 1,       ///< CL_MEM_READ_ONLY
  WriteOnly = 1u << 2,      ///< CL_MEM_WRITE_ONLY
  AllocHostPtr = 1u << 3,   ///< CL_MEM_ALLOC_HOST_PTR (pinned/host-side)
  UseHostPtr = 1u << 4,     ///< CL_MEM_USE_HOST_PTR
  CopyHostPtr = 1u << 5,    ///< CL_MEM_COPY_HOST_PTR
};

[[nodiscard]] constexpr MemFlags operator|(MemFlags a, MemFlags b) noexcept {
  return static_cast<MemFlags>(static_cast<std::uint32_t>(a) |
                               static_cast<std::uint32_t>(b));
}
[[nodiscard]] constexpr MemFlags operator&(MemFlags a, MemFlags b) noexcept {
  return static_cast<MemFlags>(static_cast<std::uint32_t>(a) &
                               static_cast<std::uint32_t>(b));
}
[[nodiscard]] constexpr MemFlags operator~(MemFlags a) noexcept {
  return static_cast<MemFlags>(~static_cast<std::uint32_t>(a));
}
[[nodiscard]] constexpr bool has_flag(MemFlags flags, MemFlags bit) noexcept {
  return (static_cast<std::uint32_t>(flags) & static_cast<std::uint32_t>(bit)) != 0;
}

/// clEnqueueMapBuffer flags.
enum class MapFlags : std::uint32_t {
  Read = 1u << 0,
  Write = 1u << 1,
  ReadWrite = (1u << 0) | (1u << 1),
};

/// clCreateCommandQueue properties (subset). Default queues are in-order:
/// every asynchronous command implicitly depends on the previously enqueued
/// one. OutOfOrder queues only honor explicit wait lists, markers and
/// barriers (CL_QUEUE_OUT_OF_ORDER_EXEC_MODE_ENABLE semantics).
enum class QueueProperties : std::uint32_t {
  Default = 0,
  OutOfOrder = 1u << 0,
};

[[nodiscard]] constexpr QueueProperties operator|(QueueProperties a,
                                                  QueueProperties b) noexcept {
  return static_cast<QueueProperties>(static_cast<std::uint32_t>(a) |
                                      static_cast<std::uint32_t>(b));
}
[[nodiscard]] constexpr bool has_flag(QueueProperties props,
                                      QueueProperties bit) noexcept {
  return (static_cast<std::uint32_t>(props) &
          static_cast<std::uint32_t>(bit)) != 0;
}

enum class DeviceType { Cpu, SimulatedGpu };

/// How the CPU device runs the workitems of one workgroup.
enum class ExecutorKind {
  Auto,     ///< simd when available, fiber when barriers are needed, else loop
  Loop,     ///< plain per-workitem loop; barrier() is an error
  Fiber,    ///< one fiber per workitem; full barrier() support
  Simd,     ///< coalesce kNativeFloatWidth workitems per lane group
  Checked,  ///< mclsan dynamic mode: serial shadow-access executor that
            ///< detects races, read-only-buffer writes, barrier divergence
            ///< and local-memory overflow (see docs/sanitizer.md)
};

/// 1-3 dimensional range (global size, local size, ids).
struct NDRange {
  std::size_t dims = 0;
  std::size_t size[3] = {0, 0, 0};

  constexpr NDRange() = default;  ///< "NullRange": local size left to runtime
  constexpr explicit NDRange(std::size_t x) : dims(1), size{x, 1, 1} {}
  constexpr NDRange(std::size_t x, std::size_t y) : dims(2), size{x, y, 1} {}
  constexpr NDRange(std::size_t x, std::size_t y, std::size_t z)
      : dims(3), size{x, y, z} {}

  [[nodiscard]] constexpr bool is_null() const noexcept { return dims == 0; }
  [[nodiscard]] constexpr std::size_t total() const noexcept {
    return is_null() ? 0 : size[0] * size[1] * size[2];
  }
  [[nodiscard]] constexpr std::size_t operator[](std::size_t d) const noexcept {
    return d < dims ? size[d] : 1;
  }
  /// Component access for offset-like ranges: unused dimensions are 0, not
  /// the implicit 1 that sizes use.
  [[nodiscard]] constexpr std::size_t offset_component(std::size_t d) const noexcept {
    return d < dims ? size[d] : 0;
  }
  [[nodiscard]] constexpr bool operator==(const NDRange& o) const noexcept {
    return dims == o.dims && size[0] == o.size[0] && size[1] == o.size[1] &&
           size[2] == o.size[2];
  }
};

/// The runtime's base NULL-local-size policy, used by the simulated GPU and,
/// on the CPU device, by every launch that is not group-oblivious: 64 items
/// along x for 1D ranges, 8x8 for 2D, 4x4x4 for 3D, clamped to divide the
/// global size (falling back to the largest divisor <= the target).
[[nodiscard]] constexpr NDRange pick_default_local(const NDRange& global) noexcept {
  constexpr std::size_t kTarget[3][3] = {{64, 1, 1}, {8, 8, 1}, {4, 4, 4}};
  const std::size_t* target =
      kTarget[global.dims == 1 ? 0 : global.dims == 2 ? 1 : 2];
  NDRange local(1, 1, 1);
  local.dims = global.dims;
  for (std::size_t d = 0; d < global.dims; ++d) {
    std::size_t div = target[d] < global.size[d] ? target[d] : global.size[d];
    while (div > 1 && global.size[d] % div != 0) --div;
    local.size[d] = div;
  }
  return local;
}

/// Largest group, in items, the CPU device's NULL policy builds.
inline constexpr std::size_t kCpuMaxDefaultGroupItems = 4096;
/// Fewest groups the CPU device's NULL policy leaves, so every pool thread
/// still gets several groups to balance with.
inline constexpr std::size_t kCpuMinDefaultGroups = 64;

/// The CPU device's NULL-local rule. The groups of a group-oblivious launch
/// (ocl::group_oblivious: no barrier, no local-memory args, no workgroup
/// form) share nothing, so per-group dispatch is pure cost: dim 0 grows to the largest divisor of
/// the global size that is a multiple of `simd_width` (whole lane groups per
/// row), keeps the group at <= kCpuMaxDefaultGroupItems items and leaves
/// >= kCpuMinDefaultGroups groups. Dims 1 and 2, every other kernel, and a
/// size where no such divisor beats it keep pick_default_local's answer.
/// The candidates are the multiples of `simd_width` under both caps, tried
/// from the largest down (the dim-0 group count rising from its minimum),
/// so the search costs at most kCpuMaxDefaultGroupItems / simd_width steps
/// whatever the global size, and none for 1-D launches of <= 4096 items.
[[nodiscard]] constexpr NDRange pick_cpu_default_local(
    const NDRange& global, bool group_oblivious,
    std::size_t simd_width) noexcept {
  NDRange local = pick_default_local(global);
  if (!group_oblivious || global.total() == 0 || simd_width == 0) return local;
  const std::size_t rest = local.size[1] * local.size[2];
  const std::size_t other_groups =
      (global[1] / local[1]) * (global[2] / local[2]);
  // (global0 / l0) * other_groups >= kCpuMinDefaultGroups, with l0 | global0.
  std::size_t cap = global.size[0] * other_groups / kCpuMinDefaultGroups;
  if (cap > kCpuMaxDefaultGroupItems / rest) {
    cap = kCpuMaxDefaultGroupItems / rest;
  }
  for (std::size_t l0 = cap - cap % simd_width; l0 > local.size[0];
       l0 -= simd_width) {
    if (global.size[0] % l0 == 0) {
      local.size[0] = l0;
      break;
    }
  }
  return local;
}

}  // namespace mcl::ocl
