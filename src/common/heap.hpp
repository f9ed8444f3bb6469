// fsda::common -- hands the allocator's free pages back to the kernel at
// training phase boundaries (DESIGN.md §7, "Heap return at phase
// boundaries").
#pragma once

namespace fsda::common {

/// Returns the free pages of every malloc arena to the kernel
/// (`malloc_trim(0)` on glibc; a no-op with any other allocator), inside a
/// `heap.release` journal scope, then sets the `process.rss_mb` gauge to
/// the resident set read from /proc/self/statm (0 off Linux).
///
/// Called where each pipeline entry point that fits a reconstructor
/// returns.  glibc keeps a freed phase's pages in the arena of the thread
/// that freed them, so a next phase on another thread (a refit on the drift
/// worker) would otherwise fault in fresh pages beside them.
void release_free_heap() noexcept;

}  // namespace fsda::common
