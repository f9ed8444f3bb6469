// fsda::nn -- reusable buffer arena for training loops.
//
// A Workspace owns the intermediate matrices of forward/backward passes so
// that a steady-state training step performs zero heap allocations: each
// (owner, slot) pair maps to one Matrix whose capacity is retained across
// steps, and Matrix::resize only touches the heap when a request outgrows
// what a previous step already reserved.  It also holds the caches backward()
// reads (batch norm's normalized input, dropout's mask), so its lifetime
// bounds every batch-sized buffer of the passes run on it.
//
// Owners are addresses (usually the Layer operating on the buffer), so one
// Workspace can be threaded through an arbitrary layer graph -- including a
// GAN's interleaved generator/discriminator passes -- without slot clashes.
// Buffers returned by buffer() stay valid (stable address) until clear(), so
// layers may cache pointers into them between forward and backward.
//
// A Workspace is not thread-safe; use one per training thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "la/gemm.hpp"
#include "la/matrix.hpp"

namespace fsda::nn {

/// Arena of named, reusable matrices keyed by (owner address, slot index).
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Returns the buffer for (owner, slot), resized to rows x cols.  Contents
  /// are unspecified (possibly stale data from a previous step); callers
  /// must fully overwrite or fill() it.  The reference and the underlying
  /// storage remain stable until clear() or a larger resize.
  la::Matrix& buffer(const void* owner, int slot, std::size_t rows,
                     std::size_t cols);

  /// Returns the cached weight pack for (owner, slot), repacking `weights`
  /// (transposed when requested) only when `version` differs from the cached
  /// one or the shape/orientation changed.  `version` must be the owning
  /// Parameter's version tag (never 0) so the pack is rebuilt exactly once
  /// per optimizer update and shared by every forward/backward in between.
  ///
  /// Packs live in their own keyspace, distinct from buffer() slots: a
  /// backward-pass pack can never alias (or be resized over) a forward
  /// activation buffer even if a layer reuses slot indices across the two
  /// calls.  Debug builds additionally assert that the pack SOURCE does not
  /// point into any workspace buffer -- packing an activation that a later
  /// buffer() resize may invalidate is always a bug.
  const la::PackedB& packed(const void* owner, int slot,
                            const la::Matrix& weights, std::uint64_t version,
                            bool transposed = false);

  /// When false, parameterized layers skip accumulating their parameter
  /// gradients in backward() (Linear's weight and bias, BatchNorm1d's gamma
  /// and beta, FeatureGate's logits) and produce only the input gradient
  /// (dX).  GAN generator steps use this for the discriminator backward
  /// whose weight gradients are discarded anyway -- dX is unchanged, so the
  /// training trajectory is identical.
  [[nodiscard]] bool param_grads_enabled() const {
    return param_grads_enabled_;
  }
  void set_param_grads_enabled(bool on) { param_grads_enabled_ = on; }

  /// When false, the first layer of a backward pass skips its input
  /// gradient (dX): the returned matrix has the input's shape but
  /// unspecified contents.  Training loops clear it for backward passes
  /// whose dX is discarded (a discriminator's real/fake passes, a
  /// generator's or classifier's backward); parameter gradients are
  /// bit-identical either way.  Sequential::backward re-enables it for
  /// every layer but its first, ParallelSum hands it to both branches,
  /// nn::Linear honors it by skipping the transposed pack and the dX GEMM,
  /// and BatchNorm1d and FeatureGate skip their dX row stage.
  [[nodiscard]] bool input_grad_enabled() const { return input_grad_enabled_; }
  void set_input_grad_enabled(bool on) { input_grad_enabled_ = on; }

  /// Number of distinct (owner, slot) buffers created so far.
  [[nodiscard]] std::size_t num_buffers() const { return buffers_.size(); }

  /// Number of distinct weight packs created so far.
  [[nodiscard]] std::size_t num_packs() const { return packs_.size(); }

  /// Total doubles currently held across all buffers.
  [[nodiscard]] std::size_t total_elements() const;

  /// Drops every buffer and pack (invalidates all references handed out).
  void clear() {
    buffers_.clear();
    packs_.clear();
  }

 private:
  struct PackEntry {
    la::PackedB pack;
    std::uint64_t version = 0;  // 0 = never packed (parameter versions >= 1)
    bool transposed = false;
  };

  struct KeyHash {
    std::size_t operator()(const std::pair<const void*, int>& k) const {
      const auto h1 = std::hash<const void*>{}(k.first);
      const auto h2 = std::hash<int>{}(k.second);
      return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
    }
  };

  std::unordered_map<std::pair<const void*, int>, la::Matrix, KeyHash>
      buffers_;
  std::unordered_map<std::pair<const void*, int>, PackEntry, KeyHash> packs_;
  bool param_grads_enabled_ = true;
  bool input_grad_enabled_ = true;
};

}  // namespace fsda::nn
