// Helpers shared by the federation tests: a digest of an engine's decision
// log, and a reference writer for the read-only LYRAFED version 1 layout.
#ifndef TESTS_FED_TEST_SUPPORT_H_
#define TESTS_FED_TEST_SUPPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/codec.h"
#include "src/sim/decision_log.h"
#include "src/svc/snapshot.h"

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

// The first LYRAFED version, which an older router wrote alongside its
// cross-cluster loan ledger: the decoder must still read it.
inline constexpr EnvelopeFormat kFedSnapshotFormatV1{"LYRAFED_", 1};

// One loan of the version-1 ledger.
struct V1Loan {
  std::uint64_t id = 0;
  std::uint32_t lender = 0;
  std::uint32_t borrower = 0;
  std::int64_t gpus = 0;
  double granted_at = 0.0;
};

// Writes `fed` in the version-1 layout: u64 submit_seq, the loan ledger
// (u64 next_loan_id, granted, reclaimed and returned totals, ledger_hash,
// u32 loan count, loans), u32 cluster count, then per cluster its name,
// u8 kind, i64 loan priority, u32 shards and u64-framed image.
inline std::string EncodeFedSnapshotV1(const FedSnapshot& fed,
                                       const std::vector<V1Loan>& loans) {
  ByteWriter payload;
  payload.U64(fed.submit_seq);
  payload.U64(loans.size() + 1);  // next loan id
  std::uint64_t granted = 0;
  for (const V1Loan& loan : loans) {
    granted += static_cast<std::uint64_t>(loan.gpus);
  }
  payload.U64(granted);
  payload.U64(0);  // reclaimed
  payload.U64(0);  // returned
  payload.U64(fed.ledger_hash);
  payload.U32(static_cast<std::uint32_t>(loans.size()));
  for (const V1Loan& loan : loans) {
    payload.U64(loan.id);
    payload.U32(loan.lender);
    payload.U32(loan.borrower);
    payload.I64(loan.gpus);
    payload.F64(loan.granted_at);
  }
  payload.U32(static_cast<std::uint32_t>(fed.clusters.size()));
  std::int64_t priority = 0;
  for (const FedClusterImage& cluster : fed.clusters) {
    payload.Str(cluster.name);
    payload.U8(cluster.kind);
    payload.I64(priority++);
    payload.U32(cluster.shards);
    payload.Blob(cluster.image);
  }
  return Seal(kFedSnapshotFormatV1, payload.bytes());
}

}  // namespace lyra::svc

#endif  // TESTS_FED_TEST_SUPPORT_H_
