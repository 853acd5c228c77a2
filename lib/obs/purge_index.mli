(** Indexes that drive purging in O(|predecessors|) per insert.

    The naive purge re-scans the whole delivery queue on every insert,
    making the paper's "cheap" operation O(queue). All three encodings
    of §4.2 have bounded fan-in — a tag names one lineage, an
    enumeration a finite predecessor list, a k-enumeration a k-wide
    window — so the pairs a fresh message can participate in are
    reachable by point lookups. A view's state is kept per sender:

    - the sender's queued entries, in a ring indexed by sequence
      number ([Enum] and [Kenum] forward probes; a [Kenum] message
      probes only its set distances that reach a queued sequence
      number, walking its bitmap a word at a time);
    - a tag map holding the one queued entry per tag lineage ([Tag]
      both directions);
    - a reverse map from each of the sender's sequence numbers named
      by a queued [Enum] entry to those entries (the cross-sender
      reverse direction);
    - a high-water mark and the widest queued [Kenum] window, bounding
      the [Kenum] reverse probe (it short-circuits whenever nothing is
      queued above the fresh sequence number — always, for in-order
      senders). Both reset when the sender has nothing queued.

    Every key is an int, so no probe allocates or runs the generic
    hash, and {!plan} allocates nothing when there are no victims. The
    newest view's state survives its queue draining (a steady stream
    does not rebuild it per message); an older view's state is dropped
    once it has drained.

    The structure is parametric in ['h], the queue handle type (e.g.
    [Dq.handle]), so it composes with any buffer that supports O(1)
    removal by handle.

    Invariants the caller maintains: queued ids are unique per view
    (the protocol's FIFO floors guarantee it); every insert runs
    {!plan} and removes the victims before {!add}ing the fresh entry,
    keeping the queue purge-closed; every entry leaving the queue for
    any reason is {!remove}d. Sequence numbers may arrive in any order;
    the ring is sized by the span of a sender's queued sequence
    numbers, and a sender whose span outgrows 2{^16} falls back to a
    hashtable until it drains. *)

type 'h t

type 'h victim = { victim_id : Msg_id.t; victim_ann : Annotation.t; victim_handle : 'h }

val create : unit -> 'h t

val add : 'h t -> view:int -> id:Msg_id.t -> ann:Annotation.t -> 'h -> seq:int -> unit
(** Register a queued entry. [seq] is its queue position stamp
    ({!Dq.handle_seq}): {!plan} sorts victims by it so purge effects
    (counters, trace events) come out in queue order. *)

val remove : 'h t -> view:int -> id:Msg_id.t -> ann:Annotation.t -> unit
(** Unregister an entry that left the queue (delivered or purged).
    A no-op for ids that were never added. *)

val plan : 'h t -> view:int -> id:Msg_id.t -> ann:Annotation.t -> 'h victim list * bool
(** For a fresh message about to join [view]'s queue: the queued
    entries it obsoletes (front-to-back) and whether a queued entry
    obsoletes {e it} (in which case the fresh message must be dropped
    after its victims are purged — exactly the pairwise semantics).
    The fresh message must not be {!add}ed yet. *)

val obsoleted : 'h t -> view:int -> id:Msg_id.t -> ann:Annotation.t -> bool
(** The reverse direction alone: would some queued entry of [view]
    obsolete this message? This is the receive-path cover test. *)

val cardinal : 'h t -> view:int -> int
(** Indexed entries of one view (for tests). *)

val views_retained : 'h t -> int
(** Views whose state is held: every view with queued entries, plus
    the newest. For tests only. *)
