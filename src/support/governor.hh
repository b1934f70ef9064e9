/**
 * @file
 * support::ResourceGovernor -- the process-wide deadline channel that
 * lets long-running operations be cancelled cooperatively.
 *
 * The paper's workloads (2170-host Grid'5000 traces) can push one
 * layout stabilisation or one Eq.-1 aggregation past a human's
 * patience. The governor gives every such operation a cheap poll:
 * an OperationScope arms an absolute deadline on the injectable
 * support::Clock, worker chunks call deadlineExpired() (one relaxed
 * atomic load when nothing is armed), and the operation returns a
 * clean Errc::Deadline Expected error -- with session state unchanged,
 * because callers roll back or discard what the aborted work computed.
 *
 * The governor deliberately does NOT probe the OS for memory: byte
 * accounting lives in app::Session::workingSetBytes(), a deterministic
 * model of containers/records/layout nodes, so degradation decisions
 * are a pure function of the loaded data, not of the machine.
 */

#pragma once

#include <atomic>
#include <cstdint>

namespace viva::support
{

/**
 * The deadline poll channel plus the degradation/abort counters.
 * One global instance; arming is done through OperationScope.
 */
class ResourceGovernor
{
  public:
    static ResourceGovernor &global();

    /**
     * True when an operation deadline is armed and the clock has
     * passed it. Disarmed cost: one relaxed load. Worker chunks call
     * this at chunk boundaries (cooperative cancellation points).
     */
    bool deadlineExpired() const;

    /** Record a deadline abort (obs counter governor.deadline_aborts). */
    void noteDeadlineAbort();

    /** Record a watermark degradation (obs counter governor.degradations). */
    void noteDegradation();

  private:
    friend class OperationScope;

    /** Absolute deadline in clock() nanos; 0 means disarmed. */
    std::atomic<std::uint64_t> deadlineAt{0};
};

/**
 * RAII deadline for one governed operation. A zero budget arms
 * nothing. When scopes nest, the outermost wins: an inner scope with
 * a deadline already armed leaves it in place, so a governed render
 * that internally runs a governed aggregation is bounded by the
 * caller's budget, not reset by the callee's.
 */
class OperationScope
{
  public:
    /** Arm clock().nowNanos() + budget_nanos (0 = do not arm). */
    explicit OperationScope(std::uint64_t budget_nanos);
    ~OperationScope();

    OperationScope(const OperationScope &) = delete;
    OperationScope &operator=(const OperationScope &) = delete;

    /** Did this (or an enclosing) scope's deadline pass? */
    bool expired() const;

  private:
    bool armed = false;
};

} // namespace viva::support
