//===- service/RequestQueue.h - Bounded session run queue -------*- C++ -*-===//
//
// Part of fcsl-cpp, a C++ reproduction of "Mechanized Verification of
// Fine-grained Concurrent Programs" (Sergey, Nanevski, Banerjee; PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's run queue (DESIGN.md §15): a bounded FIFO of submitted
/// sessions consumed by a pool of session workers. Submission is
/// fail-loud — a full queue rejects the request immediately (the client
/// gets an error Report) instead of buffering unboundedly. Jobs carry
/// their session's modes inside the closure, so any two may run at once.
///
//===----------------------------------------------------------------------===//

#ifndef FCSL_SERVICE_REQUEST_QUEUE_H
#define FCSL_SERVICE_REQUEST_QUEUE_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>

namespace fcsl {
namespace service {

/// One scheduled unit of daemon work: runs on a session worker, runs the
/// session, and writes frames back to the client.
using Job = std::function<void()>;

class RequestQueue {
public:
  explicit RequestQueue(size_t Capacity) : Capacity(Capacity) {}

  /// Enqueues \p J. False when the queue is full or closed — the caller
  /// must reject the request loudly.
  bool push(Job J);

  /// Blocks for the FIFO head. Returns nullopt only when the queue is
  /// closed and empty — the worker exits. Every popped job MUST be
  /// followed by done() exactly once.
  std::optional<Job> pop();

  /// Marks a popped job finished (waitDrained counts running jobs).
  void done();

  /// Stops accepting pushes; pop() drains the backlog then returns
  /// nullopt. Idempotent.
  void close();

  /// Blocks until every queued job has been popped AND finished (the
  /// graceful-Shutdown drain).
  void waitDrained();

private:
  std::mutex M;
  std::condition_variable CV;
  std::deque<Job> Q;
  size_t Capacity;
  unsigned Running = 0;
  bool Closed = false;
};

} // namespace service
} // namespace fcsl

#endif // FCSL_SERVICE_REQUEST_QUEUE_H
