(* 62 usable bits per word keeps every shift well inside OCaml's 63-bit
   native int, so [lsl]/[lsr] never touch the sign bit. *)
let word_bits = 62

let word_mask = (1 lsl word_bits) - 1

type t = { width : int; words : int array }

let create ~k =
  if k < 0 then invalid_arg "Bitvec.create: negative k";
  { width = k; words = Array.make (((k + word_bits - 1) / word_bits) + 1) 0 }

let k t = t.width

let copy t = { width = t.width; words = Array.copy t.words }

(* Distance d (1-based) lives at bit index d-1. *)
let set t d =
  if d < 1 then invalid_arg "Bitvec.set: distance must be >= 1";
  if d <= t.width then begin
    let i = d - 1 in
    t.words.(i / word_bits) <-
      t.words.(i / word_bits) lor (1 lsl (i mod word_bits))
  end

let get t d =
  if d < 1 || d > t.width then false
  else
    let i = d - 1 in
    t.words.(i / word_bits) land (1 lsl (i mod word_bits)) <> 0

let is_empty t = Array.for_all (fun w -> w = 0) t.words

(* Clear any bits at indices >= width (distances > k). *)
let truncate t =
  let nwords = Array.length t.words in
  let full = t.width / word_bits in
  let rem = t.width mod word_bits in
  if full < nwords then begin
    if rem > 0 then t.words.(full) <- t.words.(full) land ((1 lsl rem) - 1)
    else t.words.(full) <- 0;
    for i = full + 1 to nwords - 1 do
      t.words.(i) <- 0
    done
  end

let or_shifted ~into src ~shift =
  if shift < 0 then invalid_arg "Bitvec.or_shifted: negative shift";
  let woff = shift / word_bits in
  let boff = shift mod word_bits in
  let n_into = Array.length into.words in
  for wi = Array.length src.words - 1 downto 0 do
    let w = src.words.(wi) in
    if w <> 0 then begin
      let lo = wi + woff in
      if lo < n_into then
        into.words.(lo) <- into.words.(lo) lor ((w lsl boff) land word_mask);
      if boff > 0 && lo + 1 < n_into then
        into.words.(lo + 1) <- into.words.(lo + 1) lor (w lsr (word_bits - boff))
    end
  done;
  truncate into

let union ~into src = or_shifted ~into src ~shift:0

(* Position of the lowest set bit of a nonzero word. *)
let lowest_bit w =
  let n = ref 0 and w = ref w in
  if !w land 0xFFFF_FFFF = 0 then begin
    n := 32;
    w := !w lsr 32
  end;
  if !w land 0xFFFF = 0 then begin
    n := !n + 16;
    w := !w lsr 16
  end;
  if !w land 0xFF = 0 then begin
    n := !n + 8;
    w := !w lsr 8
  end;
  if !w land 0xF = 0 then begin
    n := !n + 4;
    w := !w lsr 4
  end;
  if !w land 0x3 = 0 then begin
    n := !n + 2;
    w := !w lsr 2
  end;
  if !w land 0x1 = 0 then !n + 1 else !n

(* Bits above [width] are always clear (every writer drops or truncates
   them), so the first set bit found is a distance within 1..k. *)
let rec next_in words wi =
  if wi >= Array.length words then 0
  else
    let w = words.(wi) in
    if w = 0 then next_in words (wi + 1) else (wi * word_bits) + lowest_bit w + 1

let next t d =
  let i = Int.max d 1 - 1 in
  if i >= t.width then 0
  else
    let wi = i / word_bits in
    let w = t.words.(wi) lsr (i - (wi * word_bits)) in
    if w <> 0 then i + lowest_bit w + 1 else next_in t.words (wi + 1)

let distances t =
  let rec go d acc = match next t d with 0 -> List.rev acc | d -> go (d + 1) (d :: acc) in
  go 1 []

let cardinal t =
  let rec go d n = match next t d with 0 -> n | d -> go (d + 1) (n + 1) in
  go 1 0

let equal a b =
  a.width = b.width
  &&
  let max_words = Stdlib.max (Array.length a.words) (Array.length b.words) in
  let word arr i = if i < Array.length arr then arr.(i) else 0 in
  let rec check i =
    i >= max_words || (word a.words i = word b.words i && check (i + 1))
  in
  check 0

let byte_length t = (t.width + 7) / 8

(* Byte [b] holds bit indices 8b..8b+7; when they straddle a word
   boundary its high part comes from the next word (which always
   exists: [words] has a spare word past the last one in use). *)
let byte t b =
  let i = 8 * b in
  let wi = i / word_bits in
  let off = i - (wi * word_bits) in
  let v = t.words.(wi) lsr off in
  let v = if off > word_bits - 8 then v lor (t.words.(wi + 1) lsl (word_bits - off)) else v in
  v land 0xFF

let or_byte t b v =
  if b < 0 || b >= byte_length t then invalid_arg "Bitvec.or_byte: byte out of range";
  let i = 8 * b in
  (* Bits at or above [width] (distances > k) are dropped. *)
  let v = if i + 8 > t.width then v land ((1 lsl (t.width - i)) - 1) else v land 0xFF in
  let wi = i / word_bits in
  let off = i - (wi * word_bits) in
  t.words.(wi) <- t.words.(wi) lor ((v lsl off) land word_mask);
  if off > word_bits - 8 then t.words.(wi + 1) <- t.words.(wi + 1) lor (v lsr (word_bits - off))

let to_bytes t = String.init (byte_length t) (fun b -> Char.chr (byte t b))

let of_bytes ~k s =
  if String.length s <> (k + 7) / 8 then invalid_arg "Bitvec.of_bytes: wrong length";
  let t = create ~k in
  String.iteri (fun b c -> or_byte t b (Char.code c)) s;
  t

let pp ppf t =
  Format.fprintf ppf "{k=%d;" t.width;
  List.iter (fun d -> Format.fprintf ppf " %d" d) (distances t);
  Format.fprintf ppf "}"
