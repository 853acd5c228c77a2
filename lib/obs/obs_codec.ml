module Codec = Svs_codec.Codec
module W = Codec.Writer
module R = Codec.Reader

let write_msg_id w (id : Msg_id.t) =
  W.varint w id.Msg_id.sender;
  W.varint w id.Msg_id.sn

let read_msg_id r =
  let sender = R.varint r in
  let sn = R.varint r in
  Msg_id.make ~sender ~sn

let write_annotation w = function
  | Annotation.Unrelated -> W.uint8 w 0
  | Annotation.Tag tag ->
      W.uint8 w 1;
      W.zigzag w tag
  | Annotation.Enum preds ->
      W.uint8 w 2;
      W.list w write_msg_id preds
  | Annotation.Kenum bm ->
      W.uint8 w 3;
      W.varint w (Bitvec.k bm);
      for b = 0 to Bitvec.byte_length bm - 1 do
        W.uint8 w (Bitvec.byte bm b)
      done

let read_annotation r =
  match R.uint8 r with
  | 0 -> Annotation.Unrelated
  | 1 -> Annotation.Tag (R.zigzag r)
  | 2 -> Annotation.Enum (R.list r read_msg_id)
  | 3 ->
      let k = R.varint r in
      if k < 0 then raise (Codec.Malformed "negative k-enumeration width");
      (* Check the length before allocating: k comes off the wire. *)
      if R.remaining r < (k / 8) + Bool.to_int (k land 7 <> 0) then raise Codec.Truncated;
      let bm = Bitvec.create ~k in
      for b = 0 to Bitvec.byte_length bm - 1 do
        Bitvec.or_byte bm b (R.uint8 r)
      done;
      Annotation.Kenum bm
  | n -> raise (Codec.Malformed (Printf.sprintf "annotation tag %d" n))
