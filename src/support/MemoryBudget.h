//===- support/MemoryBudget.h - Modeled-byte memory accounting -*- C++ -*-===//
//
// Part of the selspec project (PLDI'95 selective specialization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-level memory accounting for the serving layer.  The object-count
/// guard (ResourceLimits::MaxObjects) misses the allocations that actually
/// hurt a shared-pool server: a handful of huge arrays or strings.  This
/// module defines the *modeled byte* cost of every heap object — a fixed,
/// platform-independent function of the payload, so both execution tiers
/// charge identical byte totals and RunStats/trap behavior stays
/// bit-identical across tiers — and a process-wide live-byte tally with a
/// high-watermark that feeds the overload governor (driver/Overload.h).
///
/// Charging happens inside Heap (runtime/Heap.h): every allocation adds
/// its modeled bytes to the owning Heap's local tally, which is flushed
/// to the process-wide counter in FlushChunk batches so the per-
/// allocation hot path stays free of atomics.  The per-job budget
/// (ResourceLimits::MaxBytes) is enforced by the interpreters *before*
/// each allocation against the local tally plus the incoming object's
/// modeled size, trapping TrapKind::MemoryBudgetExceeded (exit 24).
///
//===----------------------------------------------------------------------===//

#ifndef SELSPEC_SUPPORT_MEMORYBUDGET_H
#define SELSPEC_SUPPORT_MEMORYBUDGET_H

#include <cstddef>
#include <cstdint>

namespace selspec {
namespace membudget {

/// Modeled cost constants.  Deliberately fixed numbers, not sizeof():
/// the budget must charge the same bytes in every build mode and on every
/// platform, or the byte at which a run traps would not be reproducible.
/// 64 covers the Obj header + allocator overhead; 16 is one tagged Value
/// slot; 48 is one shared capture cell (control block + boxed value).
constexpr uint64_t ObjBaseBytes = 64;
constexpr uint64_t SlotBytes = 16;
constexpr uint64_t CellBytes = 48;

/// Fixed cost plus \p N units of \p Unit bytes, saturating at UINT64_MAX:
/// a hostile size (array(2^62)) must read as "over any budget", never
/// wrap to a small number that passes the check.
inline uint64_t saturatingBytes(uint64_t N, uint64_t Unit) {
  uint64_t Bytes;
  if (__builtin_mul_overflow(N, Unit, &Bytes) ||
      __builtin_add_overflow(Bytes, ObjBaseBytes, &Bytes))
    return UINT64_MAX;
  return Bytes;
}

/// Modeled bytes of a class instance with \p NumSlots slots.
inline uint64_t instanceBytes(uint64_t NumSlots) {
  return saturatingBytes(NumSlots, SlotBytes);
}
/// Modeled bytes of a string of \p Len characters.
inline uint64_t stringBytes(uint64_t Len) { return saturatingBytes(Len, 1); }
/// Modeled bytes of an array of \p N elements.
inline uint64_t arrayBytes(uint64_t N) { return saturatingBytes(N, SlotBytes); }
/// Modeled bytes of a closure capturing \p NumCaptured cells.
inline uint64_t closureBytes(uint64_t NumCaptured) {
  return saturatingBytes(NumCaptured, CellBytes);
}

/// Heaps flush their local tally to the process-wide counter every this
/// many new modeled bytes (and release everything on destruction), so
/// the global view lags a live heap by at most FlushChunk per thread.
constexpr uint64_t FlushChunk = uint64_t(1) << 20;

/// Adjusts the process-wide modeled live-byte tally (called by Heap
/// flushes; positive on allocation batches, negative on heap teardown)
/// and maintains the high-watermark.  Also publishes the
/// `serve.mem_live_bytes` / `serve.mem_watermark` gauges.
void addLive(int64_t Delta);

/// Process-wide modeled live bytes across every active Heap (lags
/// per-heap tallies by at most FlushChunk each).
uint64_t liveBytes();

/// Highest value liveBytes() has reached since start / resetWatermark().
uint64_t highWatermark();

/// Resets the watermark to the current live tally (test isolation).
void resetWatermark();

/// The per-job byte budget from the SELSPEC_MAX_BYTES environment
/// variable, or \p Fallback when unset/empty/unparsable.
uint64_t maxBytesFromEnv(uint64_t Fallback);

} // namespace membudget
} // namespace selspec

#endif // SELSPEC_SUPPORT_MEMORYBUDGET_H
