// Fundamental identifier and time types shared by every latdiv subsystem.
//
// The simulator uses a single global tick equal to one GDDR5 command-bus
// cycle (1.5 GHz, tCK = 0.667 ns).  All other clock domains (the GPU core
// domain, the interconnect) are expressed as divisors of this tick.
#pragma once

#include <cstdint>
#include <limits>

namespace latdiv {

/// Global simulation time, in GDDR5 command-clock cycles.
using Cycle = std::uint64_t;

/// Sentinel for "not yet scheduled / no deadline".
inline constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/// Physical byte address in the simulated global memory space.
using Addr = std::uint64_t;

/// Cache-line size of every cache, the coalescer and each DRAM burst
/// (paper Table II: 128B lines in the L1 and the L2).
inline constexpr Addr kLineBytes = 128;

/// Streaming-multiprocessor (compute unit) index.
using SmId = std::uint16_t;

/// Warp index within one SM.
using WarpId = std::uint16_t;

/// Memory channel / memory-partition index.
using ChannelId = std::uint8_t;

/// DRAM bank index within a channel's single rank.
using BankId = std::uint8_t;

/// DRAM bank-group index.
using BankGroupId = std::uint8_t;

/// DRAM row index within a bank.
using RowId = std::uint32_t;

/// Sentinel row meaning "bank is precharged / no row open".
inline constexpr RowId kNoRow = std::numeric_limits<RowId>::max();

/// Globally unique identifier for one *dynamic* warp load/store instruction.
/// All memory requests coalesced out of the same vector memory instruction
/// share one WarpInstrUid; this is the unit the paper calls a "warp" at the
/// memory controller (a warp-group is the slice of one WarpInstrUid's
/// requests that lands in one controller).
using WarpInstrUid = std::uint64_t;

inline constexpr WarpInstrUid kNoWarpInstr =
    std::numeric_limits<WarpInstrUid>::max();

/// Pair identifying the *static* owner of a warp-group at a controller:
/// the paper's <SM-id, Warp-id> tuple plus the dynamic instruction uid.
struct WarpTag {
  SmId sm = 0;
  WarpId warp = 0;
  WarpInstrUid instr = kNoWarpInstr;

  friend bool operator==(const WarpTag&, const WarpTag&) = default;
};

}  // namespace latdiv
