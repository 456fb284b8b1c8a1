//===- service/RequestQueue.cpp - Bounded session run queue ----------------===//
//
// Part of fcsl-cpp. See RequestQueue.h for the interface.
//
//===----------------------------------------------------------------------===//

#include "service/RequestQueue.h"

using namespace fcsl;
using namespace fcsl::service;

bool RequestQueue::push(Job J) {
  {
    std::lock_guard<std::mutex> Lock(M);
    if (Closed || Q.size() >= Capacity)
      return false;
    Q.push_back(std::move(J));
  }
  CV.notify_all();
  return true;
}

std::optional<Job> RequestQueue::pop() {
  std::unique_lock<std::mutex> Lock(M);
  CV.wait(Lock, [this] { return Closed || !Q.empty(); });
  if (Q.empty())
    return std::nullopt; // closed and drained.
  Job J = std::move(Q.front());
  Q.pop_front();
  ++Running;
  return J;
}

void RequestQueue::done() {
  {
    std::lock_guard<std::mutex> Lock(M);
    --Running;
  }
  CV.notify_all();
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Closed = true;
  }
  CV.notify_all();
}

void RequestQueue::waitDrained() {
  std::unique_lock<std::mutex> Lock(M);
  CV.wait(Lock, [this] { return Q.empty() && Running == 0; });
}
