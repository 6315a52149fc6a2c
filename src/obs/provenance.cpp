#include "obs/provenance.hpp"

namespace rrf::obs {

namespace {
thread_local ProvenanceRound* g_sink = nullptr;
}  // namespace

ProvenanceRound* provenance_sink() { return g_sink; }

ProvenanceScope::ProvenanceScope(ProvenanceRound* round)
    : previous_(g_sink) {
  if (round != nullptr) round->clear();
  g_sink = round;
}

ProvenanceScope::~ProvenanceScope() { g_sink = previous_; }

}  // namespace rrf::obs
