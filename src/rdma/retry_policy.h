// Shared bounded-retry policy and lock-lease expiry watch.
//
// RetryPolicy replaces the bare retry spins that used to live in
// remote_tree.cpp and race_table.cpp: every retried operation charges an
// exponentially growing (small-capped) *virtual* backoff with deterministic
// jitter (a pure hash of the fault-injector seed, the client id, the op
// token and the attempt number, so a fixed seed replays the same waits),
// yields or sleeps an escalating slice of *real* time so contended peers
// actually get the CPU and lease floors are reachable, and gives up cleanly
// after a per-op attempt budget instead of spinning forever.
//
// LockWatch is how a waiter decides a lock lease has expired. There is no
// cross-client clock comparison -- per-endpoint virtual clocks are mutually
// unsynchronized, and a skewed comparison could forge an expiry on a live
// lock. Instead the waiter watches the lock *word*: only when the same
// bit-identical locked word is observed at the same address for a full
// lease of the waiter's own virtual clock AND a real-time floor (robust to
// sanitizer/scheduler slowdowns) is the lease deemed expired. The stamp
// inside the lock word guarantees two acquisitions never produce the same
// word, and the reclaim CAS expects the watched word -- so a stale
// observation can never reclaim a lock that has since moved.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/hash.h"
#include "rdma/endpoint.h"
#include "rdma/stats.h"

namespace sphinx::rdma {

struct RetryPolicyConfig {
  uint32_t max_attempts = 256;      // per-op budget; exhaustion = kTimedOut
  uint64_t base_backoff_ns = 4000;  // ~2 RTTs; doubles per attempt
  // Virtual cap per wait, a few RTTs. Kept small on purpose: the phase
  // makespan is the *max* worker clock, so a large virtual wait charged to
  // one hot-key convoy straggler would swing whole-run throughput by the
  // depth of that convoy (a real-scheduling accident). Waiting out an
  // orphaned lease is instead paced by the escalating *real* sleeps below.
  uint64_t max_backoff_ns = 8192;
};

// Lease length in the *waiter's* virtual time: well above a live holder's
// critical section (a handful of verbs for updates, tens of microseconds
// for a split, even with injected delays), small enough that a waiter
// accumulates it within its attempt budget.
constexpr uint64_t kLeaseVirtualNs = 500'000;  // 0.5 ms
// Real-time floor before declaring expiry: a live-but-descheduled holder
// (TSan, CI preemption) gets this long to move the word before a waiter
// may steal the lock.
constexpr std::chrono::milliseconds kLeaseRealFloor{10};

// 23-bit lease stamp ticking in ~1 us of the stamping endpoint's virtual
// clock. Every verb charges >= 2 us, so two lock words packed by the same
// owner around distinct verbs always differ -- the stamp is a uniquifier
// for the watch, never compared across clients.
constexpr uint32_t kLeaseStamp23Mask = (1u << 23) - 1;
inline uint32_t lease_stamp23(uint64_t clock_ns) {
  return static_cast<uint32_t>(clock_ns >> 10) & kLeaseStamp23Mask;
}

// Per-operation retry pacing. Construct one per logical op; call backoff()
// at the top of each retry iteration.
class RetryPolicy {
 public:
  RetryPolicy(Endpoint& ep, const RetryPolicyConfig& cfg,
              BackoffHistogram* hist)
      : ep_(ep), cfg_(cfg), hist_(hist), op_token_(ep.fault_verb_seq()) {}

  // Attempt 0 is free. Later attempts charge the jittered exponential
  // backoff to the endpoint's virtual clock and yield/sleep a mirrored
  // slice of real time. Returns false once the budget is exhausted (the op
  // must surface kTimedOut instead of retrying).
  bool backoff(uint32_t attempt) {
    if (attempt >= cfg_.max_attempts) return false;
    if (attempt == 0) return true;
    const uint32_t shift = std::min(attempt - 1, 31u);
    uint64_t cap = cfg_.base_backoff_ns << std::min(shift, 16u);
    cap = std::min(cap, cfg_.max_backoff_ns);
    // Deterministic jitter in [cap/2, cap): a pure function of (injector
    // seed, client, op token, attempt), so a fixed single-threaded seed
    // replays bit-identical waits.
    const FaultInjector* inj = ep_.fabric().fault_injector();
    uint64_t x = (inj != nullptr ? inj->seed() : 0);
    x ^= static_cast<uint64_t>(ep_.fault_client_id()) * 0xff51afd7ed558ccdULL;
    x ^= op_token_ * 0x9e3779b97f4a7c15ULL;
    x ^= (static_cast<uint64_t>(attempt) + 1) * 0xc4ceb9fe1a85ec53ULL;
    const uint64_t half = std::max<uint64_t>(cap / 2, 1);
    const uint64_t wait_ns = half + splitmix64(x) % half;
    ep_.advance_local(wait_ns);
    if (hist_ != nullptr) hist_->record(wait_ns);
    // Real-time pacing, deliberately decoupled from the virtual wait: real
    // time is harness mechanics, not part of the simulated timeline. Early
    // attempts yield (live contention -- let the holder run); persistent
    // waiting escalates to real sleeps, which is the only way a waiter can
    // reach the kLeaseRealFloor that guards lease expiry.
    if (attempt < 8) {
      std::this_thread::yield();
    } else {
      const uint64_t us =
          std::min<uint64_t>(1ull << std::min(attempt - 8, 31u), 400);
      std::this_thread::sleep_for(std::chrono::microseconds(us));
    }
    return true;
  }

 private:
  Endpoint& ep_;
  const RetryPolicyConfig& cfg_;
  BackoffHistogram* hist_;
  const uint64_t op_token_;
};

// Single-slot lease-expiry watch (one per lock-taking client). observe()
// notes "this locked word sits at this address"; it returns true once the
// identical word has been watched for a full lease (virtual + real floor).
// Any change of address or word re-arms the watch.
class LockWatch {
 public:
  bool observe(const Endpoint& ep, GlobalAddr addr, uint64_t word) {
    if (!armed_ || addr.to48() != addr48_ || word != word_) {
      armed_ = true;
      addr48_ = addr.to48();
      word_ = word;
      since_virtual_ns_ = ep.clock_ns();
      since_real_ = std::chrono::steady_clock::now();
      return false;
    }
    if (ep.clock_ns() - since_virtual_ns_ < kLeaseVirtualNs) return false;
    return std::chrono::steady_clock::now() - since_real_ >= kLeaseRealFloor;
  }

  void reset() { armed_ = false; }

  uint64_t watched_word() const { return word_; }

 private:
  bool armed_ = false;
  uint64_t addr48_ = 0;
  uint64_t word_ = 0;
  uint64_t since_virtual_ns_ = 0;
  std::chrono::steady_clock::time_point since_real_;
};

}  // namespace sphinx::rdma
