// launch_small: a closed loop of small launches through CL/cl.h on an
// in-order queue — clEnqueueNDRangeKernel(square, global 4096, local NULL)
// then clWaitForEvents. The kernel body is a few microseconds of a launch,
// so the fixed launch path holds the time: shim -> event graph ->
// executor-pool hop -> device launch -> pool dispatch.
#include <stdexcept>

#include "apps/hostdata.hpp"
#include "apps/simple.hpp"
#include "bench.hpp"
#include "ocl/buffer.hpp"

namespace mclbench {

namespace {

namespace apps = mcl::apps;
namespace ocl = mcl::ocl;

class LaunchSmall final : public Workload {
 public:
  explicit LaunchSmall(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    input_ = apps::random_floats(kItems, seed_, -2.0f, 2.0f);
    reference_out_.resize(kItems);
    in_ = std::make_unique<ocl::Buffer>(
        ocl::MemFlags::ReadOnly | ocl::MemFlags::CopyHostPtr, kItems * 4,
        input_.data());
    out_ = std::make_unique<ocl::Buffer>(ocl::MemFlags::WriteOnly, kItems * 4);
    kernel_ = std::make_unique<ocl::Kernel>(
        ocl::Program::builtin().lookup(apps::kSquareKernel));
    kernel_->set_arg(0, *in_);
    kernel_->set_arg(1, *out_);
    mirror_ = std::make_unique<ClMirror>();
    cl_kernel_ = mirror_->kernel_for(*kernel_);
    for (int i = 0; i < kWarmupOps; ++i) {
      ClStamps st;
      const cl_int err = cl_launch(mirror_->queue(), cl_kernel_,
                                   ocl::NDRange{kItems}, st, false);
      if (err != CL_SUCCESS) {
        throw std::runtime_error("warmup launch failed: CL error " +
                                 std::to_string(err));
      }
    }
  }

  Pass run_pass(double seconds, SpanLog* spans) override {
    const std::uint64_t t0 = now_ns();
    const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
    Pass p(t0, seconds, static_cast<std::size_t>(seconds * kMaxOpsPerSecond));
    for (std::uint64_t op = 0; now_ns() < deadline; ++op) {
      p.sample(now_ns());
      ClStamps st;
      const cl_int err = cl_launch(mirror_->queue(), cl_kernel_,
                                   ocl::NDRange{kItems}, st, spans != nullptr);
      ++p.attempted;
      if (err != CL_SUCCESS) {
        ++p.failed;
        continue;
      }
      p.record(st.ret, st.ret - st.call);
      if (spans != nullptr && spans->wants(op)) {
        spans->add(op, "op:launch_small", st.call, st.ret);
        spans->add(op, "cl.enqueue", st.call, st.queued);
        spans->add(op, "queue.submit_wait", st.queued, st.submit);
        spans->add(op, "queue.pool_wait", st.submit, st.start);
        spans->add(op, "queue.run", st.start, st.end);
        spans->add(op, "queue.wake", st.end, st.ret);
      }
    }
    p.finish();
    return p;
  }

  void check(Report& rep) override {
    apps::FloatVec got(kItems, -1.0f);
    const cl_int err =
        clEnqueueReadBuffer(mirror_->queue(), mirror_->buffer_for(*out_),
                            CL_TRUE, 0, kItems * 4, got.data(), 0, nullptr,
                            nullptr);
    if (err != CL_SUCCESS) {
      rep.fail("launch_small: clEnqueueReadBuffer failed: " + std::to_string(err));
      return;
    }
    apps::square_reference(input_, reference_out_);
    if (apps::max_abs_diff(got, reference_out_) != 0.0) {
      rep.fail("launch_small: output differs from square_reference");
    }
  }

  std::vector<LaunchItem> ladder_op() override {
    return {{"square", kernel_.get(), ocl::NDRange{kItems},
             [this] { apps::square_reference(input_, reference_out_); }}};
  }

 private:
  static constexpr std::size_t kItems = 4096;
  static constexpr int kWarmupOps = 2000;
  static constexpr double kMaxOpsPerSecond = 100000.0;  // sample store size

  std::uint64_t seed_;
  apps::FloatVec input_;
  apps::FloatVec reference_out_;
  std::unique_ptr<ocl::Buffer> in_;
  std::unique_ptr<ocl::Buffer> out_;
  std::unique_ptr<ocl::Kernel> kernel_;
  // Declared after the buffers it wraps, so it is released first.
  std::unique_ptr<ClMirror> mirror_;
  cl_kernel cl_kernel_ = nullptr;
};

}  // namespace

std::unique_ptr<Workload> make_launch_small(std::uint64_t seed) {
  return std::make_unique<LaunchSmall>(seed);
}

}  // namespace mclbench
