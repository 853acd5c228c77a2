(** Hashtables keyed by ints.

    Keys on the per-message path are small ints (node ids, sequence
    numbers, tags): hashing them with a multiplicative mix and
    comparing with [Int.equal] avoids both the tuple keys and the
    generic [caml_hash]/polymorphic-compare probes of the polymorphic
    [Hashtbl], without letting peer-chosen keys that share their low
    bits collide. *)

include Hashtbl.S with type key = int
