// Helper shared by the federation tests: a digest of an engine's decision
// log.
#ifndef TESTS_FED_TEST_SUPPORT_H_
#define TESTS_FED_TEST_SUPPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/sim/decision_log.h"

namespace lyra::svc {

// FNV-1a over every record's fields in order: equal digests mean equal
// decision logs, so a golden file can pin an engine's whole history.
inline std::uint64_t DecisionDigest(const std::vector<DecisionRecord>& records) {
  ByteWriter out;
  for (const DecisionRecord& record : records) {
    out.F64(record.time);
    out.U32(static_cast<std::uint32_t>(record.kind));
    out.I64(record.subject);
    out.I64(record.detail);
  }
  return Fnv1a(out.bytes());
}

}  // namespace lyra::svc

#endif  // TESTS_FED_TEST_SUPPORT_H_
