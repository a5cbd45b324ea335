// Wire messages of the GMP protocol (paper S3, S4, S7).
//
// Naming maps to the paper:
//   Invite       — "?x": Exclude(q) / Invite(op(proc-id)) broadcast (Fig 2/8)
//   InviteOk     — outer process's OK(p) response
//   Commit       — "!x": Commit(op(proc-id)) : Contingent(next-op(next-id)
//                  : Faulty(Mgr) : Recovered(Mgr)) (Fig 8)
//   Interrogate / InterrogateOk / Propose / ProposeOk / ReconfigCommit
//                — the three-phase reconfiguration messages (Fig 5/10)
//   SuspectReport— the outer->Mgr request to start the removal algorithm
//                  ("when p executes faulty_p(q) it sends a message to Mgr")
//   JoinRequest  — a (new) process announcing its desire to join (S7)
//   ViewTransfer — Mgr -> joiner bootstrap carrying the committed view; the
//                  paper leaves joiner bootstrap implicit (see DESIGN.md)
//
// Each struct encodes/decodes itself with the common codec; `kind`
// constants discriminate packets and group them for the message meter.
//
// Two decode shapes exist for the list-bearing messages: the owning
// structs below (tests, cold paths, and anything that must retain the
// message) and the *View structs at the end of this header (hot-path
// decode used by the protocol handlers).  A view's list fields are
// WireLists into the packet payload — no per-field materialization — and
// stay valid only while the packet does.
#pragma once

#include <vector>

#include "common/codec.hpp"
#include "common/runtime.hpp"
#include "common/types.hpp"

namespace gmpx::gmp {

namespace kind {
// Failure-detector family (excluded from protocol complexity counts).
inline constexpr uint32_t kHeartbeat = 1;
inline constexpr uint32_t kHeartbeatAck = 2;
// Requests (inputs to the protocol; the paper's complexity rows do not
// count them as part of installing a view).
inline constexpr uint32_t kSuspectReport = 10;
inline constexpr uint32_t kJoinRequest = 11;
// Two-phase update family ("?x" / OK / "!x" / joiner bootstrap).
inline constexpr uint32_t kInvite = 12;
inline constexpr uint32_t kInviteOk = 13;
inline constexpr uint32_t kCommit = 14;
inline constexpr uint32_t kViewTransfer = 15;
// Three-phase reconfiguration family.
inline constexpr uint32_t kInterrogate = 20;
inline constexpr uint32_t kInterrogateOk = 21;
inline constexpr uint32_t kPropose = 22;
inline constexpr uint32_t kProposeOk = 23;
inline constexpr uint32_t kReconfigCommit = 24;
// Application payloads (group toolkit).
inline constexpr uint32_t kApp = 40;

// Meter ranges used by the complexity benches.
inline constexpr uint32_t kUpdateLo = kInvite, kUpdateHi = kViewTransfer;
inline constexpr uint32_t kReconfigLo = kInterrogate, kReconfigHi = kReconfigCommit;
}  // namespace kind

/// Outer -> Mgr: "I believe `suspect` is faulty; start the removal
/// algorithm" (paper S3: triggered by faulty_p(q)).
struct SuspectReport {
  ProcessId suspect = kNilId;

  Packet to_packet(ProcessId to) const {
    Writer w;
    w.u32(suspect);
    return Packet{kNilId, to, kind::kSuspectReport, std::move(w).take()};
  }
  static SuspectReport decode(const Packet& p) {
    Reader r(p.bytes);
    SuspectReport m{r.u32()};
    r.expect_done();
    return m;
  }
};

/// Joiner -> any member (forwarded to Mgr): request admission (S7).
/// `forwarded` limits relaying to one hop: when coordinator beliefs are
/// transiently inconsistent, unlimited relaying could cycle; the joiner's
/// periodic retry provides liveness instead.
struct JoinRequest {
  ProcessId joiner = kNilId;
  bool forwarded = false;

  Packet to_packet(ProcessId to) const {
    Writer w;
    w.u32(joiner);
    w.b(forwarded);
    return Packet{kNilId, to, kind::kJoinRequest, std::move(w).take()};
  }
  static JoinRequest decode(const Packet& p) {
    Reader r(p.bytes);
    JoinRequest m;
    m.joiner = r.u32();
    m.forwarded = r.b();
    r.expect_done();
    return m;
  }
};

/// Mgr -> members: invitation "?x" for version `version` = ver(Mgr)+1.
struct Invite {
  Op op = Op::kRemove;
  ProcessId target = kNilId;
  ViewVersion version = 0;

  Packet to_packet(ProcessId to) const {
    Writer w;
    w.u8(static_cast<uint8_t>(op));
    w.u32(target);
    w.u32(version);
    return Packet{kNilId, to, kind::kInvite, std::move(w).take()};
  }
  static Invite decode(const Packet& p) {
    Reader r(p.bytes);
    Invite m;
    m.op = static_cast<Op>(r.u8());
    m.target = r.u32();
    m.version = r.u32();
    r.expect_done();
    return m;
  }
};

/// Outer -> Mgr: OK for the invitation that would install `version`
/// (explicit Invite or the contingent invitation piggy-backed on a Commit).
struct InviteOk {
  ViewVersion version = 0;
  ProcessId target = kNilId;

  Packet to_packet(ProcessId to) const {
    Writer w;
    w.u32(version);
    w.u32(target);
    return Packet{kNilId, to, kind::kInviteOk, std::move(w).take()};
  }
  static InviteOk decode(const Packet& p) {
    Reader r(p.bytes);
    InviteOk m;
    m.version = r.u32();
    m.target = r.u32();
    r.expect_done();
    return m;
  }
};

/// Mgr -> members: commit "!x" installing `version`, with the contingent
/// next operation and the Mgr's current Faulty/Recovered gossip (F2).
struct Commit {
  Op op = Op::kRemove;
  ProcessId target = kNilId;
  ViewVersion version = 0;
  Op next_op = Op::kRemove;
  ProcessId next_target = kNilId;  ///< kNilId == "nil-id": no contingent op
  std::vector<ProcessId> faulty;
  std::vector<ProcessId> recovered;

  Packet to_packet(ProcessId to) const {
    Writer w;
    w.u8(static_cast<uint8_t>(op));
    w.u32(target);
    w.u32(version);
    w.u8(static_cast<uint8_t>(next_op));
    w.u32(next_target);
    w.ids(faulty);
    w.ids(recovered);
    return Packet{kNilId, to, kind::kCommit, std::move(w).take()};
  }
  static Commit decode(const Packet& p) {
    Reader r(p.bytes);
    Commit m;
    m.op = static_cast<Op>(r.u8());
    m.target = r.u32();
    m.version = r.u32();
    m.next_op = static_cast<Op>(r.u8());
    m.next_target = r.u32();
    m.faulty = r.ids();
    m.recovered = r.ids();
    r.expect_done();
    return m;
  }
};

/// Mgr -> joiner: state bootstrap accompanying the Commit(add(joiner)).
/// Carries the newly installed view plus the same contingent fields as the
/// commit so the joiner participates in a compressed round immediately.
struct ViewTransfer {
  std::vector<ProcessId> members;  ///< seniority order, includes the joiner
  ViewVersion version = 0;
  std::vector<SeqEntry> seq;  ///< full committed history, so the joiner can
                              ///< serve catch-up queries during later
                              ///< reconfigurations (Determine's op replay)
  Op next_op = Op::kRemove;
  ProcessId next_target = kNilId;
  std::vector<ProcessId> faulty;
  std::vector<ProcessId> recovered;

  Packet to_packet(ProcessId to) const {
    Writer w;
    w.ids(members);
    w.u32(version);
    w.seq(seq);
    w.u8(static_cast<uint8_t>(next_op));
    w.u32(next_target);
    w.ids(faulty);
    w.ids(recovered);
    return Packet{kNilId, to, kind::kViewTransfer, std::move(w).take()};
  }
  static ViewTransfer decode(const Packet& p) {
    Reader r(p.bytes);
    ViewTransfer m;
    m.members = r.ids();
    m.version = r.u32();
    m.seq = r.seq();
    m.next_op = static_cast<Op>(r.u8());
    m.next_target = r.u32();
    m.faulty = r.ids();
    m.recovered = r.ids();
    r.expect_done();
    return m;
  }
};

/// Reconfigurer -> members: Phase I interrogation.  Carries no state: the
/// receiver infers HiFaulty(r) from the commonly-known rank order (S4.5).
struct Interrogate {
  Packet to_packet(ProcessId to) const {
    return Packet{kNilId, to, kind::kInterrogate, {}};
  }
  static Interrogate decode(const Packet& p) {
    Reader r(p.bytes);
    r.expect_done();
    return Interrogate{};
  }
};

/// Outer -> reconfigurer: OK(seq(p), next(p)) plus ver(p).
struct InterrogateOk {
  ViewVersion version = 0;
  std::vector<SeqEntry> seq;
  std::vector<NextEntry> next;

  Packet to_packet(ProcessId to) const {
    Writer w;
    w.u32(version);
    w.seq(seq);
    w.next(next);
    return Packet{kNilId, to, kind::kInterrogateOk, std::move(w).take()};
  }
  static InterrogateOk decode(const Packet& p) {
    Reader r(p.bytes);
    InterrogateOk m;
    m.version = r.u32();
    m.seq = r.seq();
    m.next = r.next();
    r.expect_done();
    return m;
  }
};

/// Reconfigurer -> Phase I respondents: Propose((RL_r : r : v) :
/// (invis, Faulty(r))).  `ops` is the (possibly multi-operation, footnote
/// 11) recovery list; each entry's resulting_version says which view it
/// installs, the last one installing `version`.
struct Propose {
  std::vector<SeqEntry> ops;  ///< RL_r, ordered by resulting_version
  ViewVersion version = 0;    ///< v — version after the last RL op
  Op invis_op = Op::kRemove;
  ProcessId invis_target = kNilId;
  std::vector<ProcessId> faulty;

  Packet to_packet(ProcessId to) const {
    Writer w;
    w.seq(ops);
    w.u32(version);
    w.u8(static_cast<uint8_t>(invis_op));
    w.u32(invis_target);
    w.ids(faulty);
    return Packet{kNilId, to, kind::kPropose, std::move(w).take()};
  }
  static Propose decode(const Packet& p) {
    Reader r(p.bytes);
    Propose m;
    m.ops = r.seq();
    m.version = r.u32();
    m.invis_op = static_cast<Op>(r.u8());
    m.invis_target = r.u32();
    m.faulty = r.ids();
    r.expect_done();
    return m;
  }
};

/// Outer -> reconfigurer: Phase II acknowledgement.
struct ProposeOk {
  ViewVersion version = 0;

  Packet to_packet(ProcessId to) const {
    Writer w;
    w.u32(version);
    return Packet{kNilId, to, kind::kProposeOk, std::move(w).take()};
  }
  static ProposeOk decode(const Packet& p) {
    Reader r(p.bytes);
    ProposeOk m{r.u32()};
    r.expect_done();
    return m;
  }
};

/// Reconfigurer -> Phase II respondents: Commit(RL_r) : (invis, Faulty(r)).
/// The receiver applies whatever suffix of `ops` it is missing (ending at
/// `version`), adopts `r` as the new Mgr, and treats `invis` as a
/// contingent invitation.
struct ReconfigCommit {
  std::vector<SeqEntry> ops;  ///< RL_r, ordered by resulting_version
  ViewVersion version = 0;
  Op invis_op = Op::kRemove;
  ProcessId invis_target = kNilId;
  std::vector<ProcessId> faulty;

  Packet to_packet(ProcessId to) const {
    Writer w;
    w.seq(ops);
    w.u32(version);
    w.u8(static_cast<uint8_t>(invis_op));
    w.u32(invis_target);
    w.ids(faulty);
    return Packet{kNilId, to, kind::kReconfigCommit, std::move(w).take()};
  }
  static ReconfigCommit decode(const Packet& p) {
    Reader r(p.bytes);
    ReconfigCommit m;
    m.ops = r.seq();
    m.version = r.u32();
    m.invis_op = static_cast<Op>(r.u8());
    m.invis_target = r.u32();
    m.faulty = r.ids();
    r.expect_done();
    return m;
  }
};

// ---------------------------------------------------------------------------
// Hot-path decode views.  Field order mirrors the owning structs exactly;
// list fields are non-owning WireLists over the packet payload.
// ---------------------------------------------------------------------------

/// Non-owning decode of a Commit.
struct CommitView {
  Op op = Op::kRemove;
  ProcessId target = kNilId;
  ViewVersion version = 0;
  Op next_op = Op::kRemove;
  ProcessId next_target = kNilId;
  WireList<ProcessId> faulty;
  WireList<ProcessId> recovered;

  static CommitView decode(const Packet& p) {
    Reader r(p.bytes);
    CommitView m;
    m.op = static_cast<Op>(r.u8());
    m.target = r.u32();
    m.version = r.u32();
    m.next_op = static_cast<Op>(r.u8());
    m.next_target = r.u32();
    m.faulty = r.ids_view();
    m.recovered = r.ids_view();
    r.expect_done();
    return m;
  }

  /// Owning copy (the buffered-commit path must outlive the packet).
  Commit materialize() const {
    Commit c;
    c.op = op;
    c.target = target;
    c.version = version;
    c.next_op = next_op;
    c.next_target = next_target;
    c.faulty = faulty.to_vector();
    c.recovered = recovered.to_vector();
    return c;
  }
};

/// Non-owning decode of a ViewTransfer.
struct ViewTransferView {
  WireList<ProcessId> members;
  ViewVersion version = 0;
  WireList<SeqEntry> seq;
  Op next_op = Op::kRemove;
  ProcessId next_target = kNilId;
  WireList<ProcessId> faulty;
  WireList<ProcessId> recovered;

  static ViewTransferView decode(const Packet& p) {
    Reader r(p.bytes);
    ViewTransferView m;
    m.members = r.ids_view();
    m.version = r.u32();
    m.seq = r.seq_view();
    m.next_op = static_cast<Op>(r.u8());
    m.next_target = r.u32();
    m.faulty = r.ids_view();
    m.recovered = r.ids_view();
    r.expect_done();
    return m;
  }
};

/// Non-owning decode of an InterrogateOk.
struct InterrogateOkView {
  ViewVersion version = 0;
  WireList<SeqEntry> seq;
  WireList<NextEntry> next;

  static InterrogateOkView decode(const Packet& p) {
    Reader r(p.bytes);
    InterrogateOkView m;
    m.version = r.u32();
    m.seq = r.seq_view();
    m.next = r.next_view();
    r.expect_done();
    return m;
  }
};

/// Non-owning decode of a Propose.
struct ProposeView {
  WireList<SeqEntry> ops;
  ViewVersion version = 0;
  Op invis_op = Op::kRemove;
  ProcessId invis_target = kNilId;
  WireList<ProcessId> faulty;

  static ProposeView decode(const Packet& p) {
    Reader r(p.bytes);
    ProposeView m;
    m.ops = r.seq_view();
    m.version = r.u32();
    m.invis_op = static_cast<Op>(r.u8());
    m.invis_target = r.u32();
    m.faulty = r.ids_view();
    r.expect_done();
    return m;
  }
};

/// Non-owning decode of a ReconfigCommit (same wire layout as Propose).
struct ReconfigCommitView {
  WireList<SeqEntry> ops;
  ViewVersion version = 0;
  Op invis_op = Op::kRemove;
  ProcessId invis_target = kNilId;
  WireList<ProcessId> faulty;

  static ReconfigCommitView decode(const Packet& p) {
    Reader r(p.bytes);
    ReconfigCommitView m;
    m.ops = r.seq_view();
    m.version = r.u32();
    m.invis_op = static_cast<Op>(r.u8());
    m.invis_target = r.u32();
    m.faulty = r.ids_view();
    r.expect_done();
    return m;
  }
};

// ---------------------------------------------------------------------------
// Encode-once fan-out.
// ---------------------------------------------------------------------------

/// Broadcast `msg` to every id in `members` that `keep` accepts, in member
/// order, serializing the payload ONCE.  No to_packet payload depends on
/// the destination (only the Packet header carries `to`), so every copy
/// after the first is a pool-backed memcpy of the first encoding —
/// bit-identical on the wire, and sent in exactly the per-member order
/// (hence per-send RNG delay-draw order) of the equivalent to_packet loop.
/// `keep` must be side-effect-free: it runs once per member with no handler
/// executing in between, exactly like the loop it replaces.
template <typename Msg, typename Members, typename Keep>
void fan_out(Context& ctx, const Msg& msg, const Members& members, Keep&& keep) {
  Packet proto;
  bool have = false;
  ProcessId pending = kNilId;
  for (ProcessId q : members) {
    if (!keep(q)) continue;
    if (!have) {
      proto = msg.to_packet(q);  // the single encode; sent last, to the
      have = true;               // final kept member
    } else {
      ctx.send(Packet{proto.from, pending, proto.kind, copy_buffer_pooled(proto.bytes)});
    }
    pending = q;
  }
  if (have) {
    proto.to = pending;
    ctx.send(std::move(proto));
  }
}

}  // namespace gmpx::gmp
