(** Fixed-width bit vector used by the k-enumeration encoding (§4.2).

    Bit [d] (for [1 <= d <= k]) set in a message's vector means "this
    message obsoletes the d-th preceding message of the same sender".
    The representation supports the two operations the paper calls out
    as making k-enumeration efficient: shifted [or] (transitive
    composition) and membership tests. Bits shifted beyond [k] are
    silently dropped: that loses purging opportunities but never
    fabricates obsolescence, so it is always safe. *)

type t

val create : k:int -> t
(** All-zero vector of width [k] (distances 1..k). *)

val k : t -> int

val copy : t -> t

val set : t -> int -> unit
(** [set t d] marks distance [d]. Distances [> k t] are dropped;
    distances [< 1] raise [Invalid_argument]. *)

val get : t -> int -> bool
(** [get t d] is false for any [d] outside [1..k]. *)

val is_empty : t -> bool

val or_shifted : into:t -> t -> shift:int -> unit
(** [or_shifted ~into src ~shift] adds, for every distance [d] set in
    [src], the distance [d + shift] to [into] (dropping overflow).
    With [shift] = the distance from the newer message to [src]'s
    message, this composes obsolescence transitively. *)

val union : into:t -> t -> unit
(** [or_shifted ~shift:0]. *)

val next : t -> int -> int
(** [next t d] is the least set distance [>= d], or [0] when there is
    none. The walk costs one test per word it crosses plus a few word
    operations per set bit, whatever [k]: iterate with
    [next t (d + 1)] from [next t 1] until it returns [0]. *)

val distances : t -> int list
(** Set distances, ascending. *)

val cardinal : t -> int

val equal : t -> t -> bool

val to_bytes : t -> string
(** Packed little-endian bitmap, [ceil (k/8)] bytes — the wire form
    whose compactness §4.2 argues for: distance [d] is bit
    [(d-1) mod 8] of byte [(d-1)/8]. *)

val of_bytes : k:int -> string -> t
(** Inverse of {!to_bytes}; the string must be exactly [ceil (k/8)]
    bytes. Bits for distances above [k] in the last byte are dropped. *)

val byte_length : t -> int
(** [ceil (k/8)], the length of {!to_bytes}. *)

val byte : t -> int -> int
(** [byte t b] is byte [b] of {!to_bytes}, read straight out of the
    words (for [0 <= b < byte_length t]). *)

val or_byte : t -> int -> int -> unit
(** [or_byte t b v] sets the bits of byte value [v] at byte [b] of the
    packed form, dropping those for distances above [k]. Filling every
    byte of a {!create}d vector this way builds {!of_bytes}.
    @raise Invalid_argument when [b] is outside [0 .. byte_length t - 1]. *)

val pp : Format.formatter -> t -> unit
