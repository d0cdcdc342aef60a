#include "core/agent.h"

namespace agilla::core {

const char* to_string(AgentRunState s) {
  switch (s) {
    case AgentRunState::kReady:
      return "ready";
    case AgentRunState::kSleeping:
      return "sleeping";
    case AgentRunState::kBlockedTs:
      return "blocked-ts";
    case AgentRunState::kWaitingRxn:
      return "waiting-rxn";
    case AgentRunState::kBlockedOp:
      return "blocked-op";
    case AgentRunState::kDead:
      return "dead";
  }
  return "unknown";
}

Agent::Agent(AgentId id, CodeHandle code) : id_(id), code_(code) {
  stack_.reserve(kStackDepth);
}

void Agent::restore_stack(std::vector<ts::Value> values) {
  if (values.size() > kStackDepth) {
    values.resize(kStackDepth);
  }
  stack_ = std::move(values);
  stack_.reserve(kStackDepth);  // keeps push allocation-free
}

const ts::Value& Agent::heap(std::size_t slot) const {
  if (slot >= heap_.size()) {
    return kNoValue;
  }
  return heap_[slot];
}

bool Agent::set_heap(std::size_t slot, const ts::Value& v) {
  if (slot >= heap_.size()) {
    return false;
  }
  heap_[slot] = v;
  return true;
}

std::vector<std::pair<std::uint8_t, ts::Value>> Agent::heap_entries() const {
  std::vector<std::pair<std::uint8_t, ts::Value>> out;
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (heap_[i].valid()) {
      out.emplace_back(static_cast<std::uint8_t>(i), heap_[i]);
    }
  }
  return out;
}

void Agent::clear_heap() { heap_.fill(ts::Value{}); }

}  // namespace agilla::core
