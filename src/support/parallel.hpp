// The library's one worker pool: independent work items, indexed 0..items-1,
// claimed from an atomic counter by a fixed set of spawned threads.
//
// Callers keep results deterministic by writing each item's result into its
// own slot and folding the slots serially, in index order, after the pool
// returns; which worker ran an item, and when, is then unobservable.  The
// worker index passed to the body lets a caller give every worker its own
// scratch state (busy_beaver_search: one reachability arena per worker).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace ppsc {

/// Worker count for a `parallelism` setting (0 = one per hardware thread,
/// 1 = serial) over `items` work items: never more workers than items, and
/// at least one.
inline unsigned worker_count(unsigned parallelism, std::size_t items) {
    const unsigned workers =
        parallelism != 0 ? parallelism : std::max(1u, std::thread::hardware_concurrency());
    return static_cast<unsigned>(std::min<std::size_t>(workers, std::max<std::size_t>(items, 1)));
}

/// A stop predicate that never fires.
struct NeverStop {
    constexpr bool operator()() const noexcept { return false; }
};

/// Calls body(worker, index) once for every index in [0, items), on
/// `workers` threads (worker ∈ [0, workers)).  With one worker the loop runs
/// on the calling thread, in index order, as worker 0.  Otherwise each of
/// `workers` spawned threads claims the next unclaimed index until none is
/// left.  `stop()` is polled before each claim: once it returns true no
/// further item starts, and items not started are simply skipped.  An
/// exception thrown by the body ends its worker's loop; after every thread
/// has joined, the exception of the lowest-numbered failed worker is
/// rethrown.
template <typename Body, typename Stop = NeverStop>
void parallel_for(std::size_t items, unsigned workers, Body&& body, Stop&& stop = {}) {
    if (workers <= 1) {
        for (std::size_t i = 0; i < items && !stop(); ++i) body(0u, i);
        return;
    }
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            try {
                for (std::size_t i = next.fetch_add(1); i < items && !stop();
                     i = next.fetch_add(1))
                    body(w, i);
            } catch (...) {
                errors[w] = std::current_exception();
            }
        });
    }
    for (std::thread& t : pool) t.join();
    for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
    }
}

}  // namespace ppsc
