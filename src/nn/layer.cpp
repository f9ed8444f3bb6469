#include "nn/layer.hpp"

#include <algorithm>
#include <atomic>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "la/gemm.hpp"
#include "la/kernels.hpp"
#include "nn/workspace.hpp"

namespace fsda::nn {

std::uint64_t next_parameter_version() {
  // Starts at 1: Workspace::packed uses 0 as its "never packed" sentinel.
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

namespace {
// Slots for the legacy wrappers' input staging buffers, far above anything a
// layer implementation uses for itself.
constexpr int kLegacyForwardSlot = 1 << 20;
constexpr int kLegacyBackwardSlot = kLegacyForwardSlot + 1;
// forward_rows_into's staging buffer, keyed on the network it feeds.
constexpr int kRowBlockInputSlot = kLegacyForwardSlot + 2;

/// Runs fn(i) for every i in [0, items) on `parts` participants of one pool
/// region, each first running start(participant) (participant 0 is the
/// calling thread).  Each participant claims the next unclaimed item until
/// none is left, so one that starts late or runs on a busy core takes
/// fewer; which participant runs an item never changes what it computes.
template <typename Start, typename Fn>
void run_claimed(std::size_t parts, std::size_t items, const Start& start,
                 const Fn& fn) {
  std::atomic<std::size_t> next{0};
  common::parallel_for_chunked(parts, [&](std::size_t part, std::size_t) {
    start(part);
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < items; i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  });
}

}  // namespace

Pass::Pass(std::size_t rows)
    : rows_(rows),
      blocks_((rows + la::kParallelPassRows - 1) / la::kParallelPassRows),
      // A pass that already runs inside a region (a pool task) keeps every
      // stretch inline on its thread.
      parts_(blocks_ < 2 || common::ThreadPool::in_worker()
                 ? 1
                 : std::min(common::ThreadPool::global().concurrency(),
                            blocks_)) {}

void Pass::barrier() {
  // Set-up tasks first (dropout mask draws): each touches one layer's own
  // stream, so several may run at once, one per participant.
  if (num_setup_ > 1 && parts_ > 1) {
    common::parallel_for(num_setup_,
                         [this](std::size_t i) { setup_[i].fn(setup_[i].obj); });
  } else {
    for (std::size_t i = 0; i < num_setup_; ++i) setup_[i].fn(setup_[i].obj);
  }
  num_setup_ = 0;
  const auto run_rows = [this](std::size_t r0, std::size_t r1) {
    for (std::size_t s = 0; s < num_row_; ++s) row_[s].fn(row_[s].obj, r0, r1);
  };
  if (parts_ == 1 || num_row_ == 0) {
    run_caller_task();
    if (num_row_ > 0) run_rows(0, rows_);
  } else {
    // One region: a participant carries each block of rows it claims
    // through every stage of the stretch, never waiting on another.  The
    // calling thread (participant 0) runs its caller task first.
    run_claimed(parts_, blocks_, [this](std::size_t part) {
      if (part == 0) run_caller_task();
    }, [this, &run_rows](std::size_t b) {
      const std::size_t r0 = b * la::kParallelPassRows;
      run_rows(r0, std::min(rows_, r0 + la::kParallelPassRows));
    });
  }
  num_row_ = 0;
}

void Pass::run_caller_task() {
  if (caller_.fn == nullptr) return;
  const CallerTask task = caller_;
  caller_ = {nullptr, nullptr};
  task.fn(task.obj);
}

void Pass::finish() {
  barrier();
  run_param_stages();
}

void Pass::run_param_stages() {
  if (num_param_ == 0) return;
  std::size_t total = 0;
  for (std::size_t s = 0; s < num_param_; ++s) {
    total += param_[s].units * param_[s].unit_cost;
  }
  const std::size_t parts =
      total >= la::kParallelFlopThreshold && !common::ThreadPool::in_worker()
          ? common::ThreadPool::global().concurrency()
          : 1;
  // Piece p takes the units whose first multiply-add falls between cost
  // offsets total*p/parts and total*(p+1)/parts of the stages laid end to
  // end, so every unit runs exactly once and the pieces carry equal work.
  const auto run_piece = [this, total, parts](std::size_t p) {
    const std::size_t lo = total * p / parts;
    const std::size_t hi = total * (p + 1) / parts;
    std::size_t start = 0;
    for (std::size_t s = 0; s < num_param_; ++s) {
      const Task& t = param_[s];
      const auto boundary = [&](std::size_t offset) {
        if (offset <= start) return std::size_t{0};
        return std::min(t.units,
                        (offset - start + t.unit_cost - 1) / t.unit_cost);
      };
      const std::size_t u0 = boundary(lo);
      const std::size_t u1 = boundary(hi);
      if (u0 < u1) t.fn(t.obj, u0, u1);
      start += t.units * t.unit_cost;
    }
  };
  if (parts == 1) {
    run_piece(0);
  } else {
    run_claimed(parts, parts, [](std::size_t) {}, run_piece);
  }
  num_param_ = 0;
}

Layer::~Layer() = default;

const la::Matrix& Layer::forward(const la::Matrix& input, bool training,
                                 Workspace& ws) {
  Pass pass(input.rows());
  const la::Matrix& out = stage_forward(input, training, ws, pass);
  pass.finish();
  return out;
}

const la::Matrix& Layer::backward(const la::Matrix& grad_output,
                                  Workspace& ws) {
  Pass pass(grad_output.rows());
  const la::Matrix& grad = stage_backward(grad_output, ws, pass);
  pass.finish();
  return grad;
}

void forward_rows_into(Layer& net,
                       std::initializer_list<la::ConstMatrixView> parts,
                       la::Matrix& out, Workspace& ws,
                       std::size_t block_rows) {
  FSDA_CHECK_MSG(parts.size() > 0 && block_rows > 0,
                 "forward_rows_into needs an input and a block size");
  const std::size_t rows = parts.begin()->rows();
  std::size_t cols = 0;
  for (const la::ConstMatrixView& part : parts) {
    FSDA_CHECK_MSG(part.rows() == rows, "forward_rows_into: parts differ in "
                                        "row count");
    cols += part.cols();
  }
  out.resize(rows, net.output_size(cols));
  for (std::size_t r0 = 0; r0 < rows; r0 += block_rows) {
    const std::size_t m = std::min(block_rows, rows - r0);
    la::Matrix& in = ws.buffer(&net, kRowBlockInputSlot, m, cols);
    std::size_t c0 = 0;
    for (const la::ConstMatrixView& part : parts) {
      la::copy_into(part.row_block(r0, m),
                    la::MatrixView(in).col_block(c0, part.cols()));
      c0 += part.cols();
    }
    la::copy_into(net.forward(in, /*training=*/false, ws),
                  la::MatrixView(out).row_block(r0, m));
  }
}

Workspace& Layer::own_workspace() {
  if (!own_ws_) own_ws_ = std::make_unique<Workspace>();
  return *own_ws_;
}

la::Matrix Layer::forward(const la::Matrix& input, bool training) {
  Workspace& ws = own_workspace();
  // Stage the input in the workspace so callers may pass temporaries even
  // though the virtual interface caches a pointer to its input.
  la::Matrix& staged =
      ws.buffer(this, kLegacyForwardSlot, input.rows(), input.cols());
  la::copy_into(input, staged);
  return forward(staged, training, ws);
}

la::Matrix Layer::backward(const la::Matrix& grad_output) {
  Workspace& ws = own_workspace();
  la::Matrix& staged = ws.buffer(this, kLegacyBackwardSlot,
                                 grad_output.rows(), grad_output.cols());
  la::copy_into(grad_output, staged);
  return backward(staged, ws);
}

}  // namespace fsda::nn
