// Minimal coroutine task type for SPMD node programs.
//
// Each rank of an execution backend runs an `exec::Task` coroutine. Tasks
// are started by the backend, may co_await other Tasks, and propagate
// exceptions to the awaiter / the backend.
//
// Awaiting a child runs it from inside the awaiter. A child that finishes
// without suspending — every child on mp/shm, most on sim — returns there,
// and the parent goes on without ever suspending, so any number of such
// awaits in a row costs no stack. Only a child that suspended (a sim
// receive) hands control back to its parent from its final suspend point,
// by symmetric transfer. That transfer is a tail call in optimised builds
// but a real call under some instrumentation (GCC with ASan), so the
// stack it can grow is bounded by the nesting depth of awaits, never by
// their count.
//
// The same coroutine runs on every backend: on the deterministic simulator
// (src/sim) a blocking receive suspends the coroutine until the engine
// schedules the matching message; on the threaded runtime (src/mp, modes
// mp and shm) the receive blocks the rank's OS thread inside the awaiter
// and the coroutine never actually suspends mid-receive.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>

namespace dhpf::exec {

class [[nodiscard]] Task {
 public:
  struct promise_type {
    std::coroutine_handle<> continuation;  // who to resume when we finish
    /// Set once the awaiter has seen this task suspend: the awaiting parent
    /// is then suspended too, and finishing must resume it.
    bool parent_suspended = false;
    std::exception_ptr exception;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        // Resume a suspended parent; otherwise (finished inline, or a root
        // task) return to whoever resumed us: the parent's awaiter or the
        // backend.
        const promise_type& p = h.promise();
        return p.parent_suspended ? p.continuation : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() { exception = std::current_exception(); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, nullptr)) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool done() const { return !handle_ || handle_.done(); }
  [[nodiscard]] std::coroutine_handle<promise_type> handle() const { return handle_; }

  /// Rethrow any exception that escaped the task body (call once done()).
  void rethrow_if_failed() const {
    if (handle_ && handle_.promise().exception)
      std::rethrow_exception(handle_.promise().exception);
  }

  /// Awaiting a task runs it to completion (suspending the awaiter across
  /// any blocking communication the task performs).
  auto operator co_await() & noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      bool await_ready() const noexcept { return !child || child.done(); }
      bool await_suspend(std::coroutine_handle<> parent) noexcept {
        child.promise().continuation = parent;
        child.resume();
        if (child.done()) return false;  // finished inline: the parent goes on
        // The child suspended; the backend resumes it later, on this thread
        // (only sim suspends), and the child resumes the parent when done.
        child.promise().parent_suspended = true;
        return true;
      }
      void await_resume() const {
        if (child && child.promise().exception)
          std::rethrow_exception(child.promise().exception);
      }
    };
    return Awaiter{handle_};
  }
  auto operator co_await() && noexcept {
    // The temporary Task lives for the whole co_await full-expression (and
    // across suspension, since it is part of the coroutine frame), so the
    // lvalue awaiter is safe to reuse.
    return static_cast<Task&>(*this).operator co_await();
  }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  std::coroutine_handle<promise_type> handle_;
};

}  // namespace dhpf::exec
