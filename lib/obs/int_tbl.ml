include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Some keys come off the wire (tags, sparse sns), so the bucket must
     not be picked by the low bits alone: keys sharing them — multiples
     of 2^k — would pile into one bucket. Multiply by an odd constant
     and fold the high half of the product onto the low one. *)
  let hash x =
    let h = x * 0x1E3779B97F4A7C15 in
    (h lxor (h lsr 32)) land max_int
end)
