(* Per-relation indexes over the queued messages of each view. The
   queue is purge-closed between inserts (every incremental purge ran
   to completion), which is what makes the per-key structures small:
   two queued messages of one view can never obsolete one another, so
   e.g. at most one entry per (sender, tag) key can be queued.

   Everything is kept per sender, and every key is an int: a probe
   never allocates a tuple key nor runs the generic hash. *)

type 'h cell = Nil | Entry of { id : Msg_id.t; ann : Annotation.t; seq : int; handle : 'h }

type 'h victim = { victim_id : Msg_id.t; victim_ann : Annotation.t; victim_handle : 'h }

(* One sender's queued entries of one view. [ring] maps sn to its entry
   at index [sn land (length - 1)]; its length is a power of two above
   [hwm - lo], so the queued sns never collide. The ring spans the
   queued sns, not their count: when that span would outgrow
   [max_ring] (a long-queued entry far behind the stream, or a hostile
   sn) the sender switches to the [far] table until it empties. *)
type 'h sender = {
  mutable ring : 'h cell array;
  mutable far : 'h cell Int_tbl.t option; (* Some: sparse mode, ring unused *)
  mutable lo : int; (* lowest queued sn (ring mode) *)
  mutable hwm : int; (* >= every queued sn; reset when the sender empties *)
  mutable kwin : int; (* widest Kenum window queued since then *)
  mutable count : int;
  tags : 'h cell Int_tbl.t; (* tag -> the queued entry of that lineage *)
  named : 'h cell list Int_tbl.t; (* sn -> queued Enum entries naming it *)
}

type 'h vstate = { view : int; senders : 'h sender Int_tbl.t; mutable live : int }

(* Newest view first. The newest view's state survives its queue
   draining, so a steady stream does not rebuild it per message; an
   older view's state goes once it has drained. *)
type 'h t = { mutable views : 'h vstate list }

let initial_ring = 16

let max_ring = 1 lsl 16

(* A drained sender gives back a ring a burst left this large. *)
let idle_ring = 1024

let create () : 'h t = { views = [] }

let rec find_view view = function
  | [] -> raise Not_found
  | vs :: rest -> if vs.view = view then vs else find_view view rest

let prune t =
  match t.views with
  | [] -> ()
  | newest :: older -> t.views <- newest :: List.filter (fun vs -> vs.live > 0) older

let vstate t view =
  match find_view view t.views with
  | vs -> vs
  | exception Not_found ->
      let vs = { view; senders = Int_tbl.create 8; live = 0 } in
      (match List.sort (fun a b -> Int.compare b.view a.view) (vs :: t.views) with
      | newest :: older ->
          t.views <- newest :: List.filter (fun o -> o == vs || o.live > 0) older
      | [] -> assert false);
      vs

let cardinal (t : 'h t) ~view =
  match find_view view t.views with vs -> vs.live | exception Not_found -> 0

let views_retained t = List.length t.views

let sender vs s =
  match Int_tbl.find vs.senders s with
  | st -> st
  | exception Not_found ->
      let st =
        {
          ring = Array.make initial_ring Nil;
          far = None;
          lo = 0;
          hwm = min_int;
          kwin = 0;
          count = 0;
          tags = Int_tbl.create 4;
          named = Int_tbl.create 4;
        }
      in
      Int_tbl.replace vs.senders s st;
      st

let find st sn =
  if st.count = 0 || sn > st.hwm then Nil
  else
    match st.far with
    | Some far -> ( match Int_tbl.find far sn with c -> c | exception Not_found -> Nil)
    | None -> (
        if sn < st.lo then Nil
        else
          match st.ring.(sn land (Array.length st.ring - 1)) with
          | Entry e as c when e.id.Msg_id.sn = sn -> c
          | Entry _ | Nil -> Nil)

let lookup vs (id : Msg_id.t) =
  match Int_tbl.find vs.senders id.sender with
  | st -> find st id.sn
  | exception Not_found -> Nil

let resize st span =
  let n = ref initial_ring in
  while !n < span do
    n := 2 * !n
  done;
  let ring = Array.make !n Nil in
  Array.iter
    (function Entry e as c -> ring.(e.id.Msg_id.sn land (!n - 1)) <- c | Nil -> ())
    st.ring;
  st.ring <- ring

let go_sparse st =
  let far = Int_tbl.create (2 * st.count) in
  Array.iter (function Entry e as c -> Int_tbl.replace far e.id.Msg_id.sn c | Nil -> ()) st.ring;
  st.ring <- Array.make initial_ring Nil;
  st.far <- Some far

let ring_mode st = match st.far with None -> true | Some _ -> false

let place st sn c =
  if st.count = 0 then begin
    st.lo <- sn;
    st.hwm <- sn
  end
  else begin
    let lo = Int.min st.lo sn and hi = Int.max st.hwm sn in
    (if ring_mode st && hi - lo >= Array.length st.ring then
       if hi - lo >= max_ring then go_sparse st else resize st (hi - lo + 1));
    st.lo <- lo;
    st.hwm <- hi
  end;
  (match st.far with
  | Some far -> Int_tbl.replace far sn c
  | None -> st.ring.(sn land (Array.length st.ring - 1)) <- c);
  st.count <- st.count + 1

let rec skip_empty ring mask sn =
  match ring.(sn land mask) with Nil -> skip_empty ring mask (sn + 1) | Entry _ -> sn

let unplace st sn =
  (match st.far with
  | Some far -> Int_tbl.remove far sn
  | None -> st.ring.(sn land (Array.length st.ring - 1)) <- Nil);
  st.count <- st.count - 1;
  if st.count = 0 then begin
    st.hwm <- min_int;
    st.kwin <- 0;
    st.far <- None;
    if Array.length st.ring > idle_ring then st.ring <- Array.make initial_ring Nil
  end
  else if ring_mode st && sn = st.lo then
    st.lo <- skip_empty st.ring (Array.length st.ring - 1) (sn + 1)

let cell_is id = function Entry e -> Msg_id.equal e.id id | Nil -> false

let add (t : 'h t) ~view ~(id : Msg_id.t) ~ann handle ~seq =
  let vs = vstate t view in
  let st = sender vs id.sender in
  let c = Entry { id; ann; seq; handle } in
  place st id.sn c;
  (match ann with
  | Annotation.Unrelated -> ()
  | Annotation.Tag g -> Int_tbl.replace st.tags g c
  | Annotation.Enum preds ->
      List.iter
        (fun (p : Msg_id.t) ->
          let named = (sender vs p.sender).named in
          match Int_tbl.find named p.sn with
          | bucket ->
              if not (List.exists (cell_is id) bucket) then
                Int_tbl.replace named p.sn (c :: bucket)
          | exception Not_found -> Int_tbl.replace named p.sn [ c ])
        preds
  | Annotation.Kenum bm -> st.kwin <- Int.max st.kwin (Bitvec.k bm));
  vs.live <- vs.live + 1

let remove (t : 'h t) ~view ~(id : Msg_id.t) ~ann =
  match find_view view t.views with
  | exception Not_found -> ()
  | vs -> (
      match Int_tbl.find vs.senders id.sender with
      | exception Not_found -> ()
      | st -> (
          match find st id.sn with
          | Nil -> () (* never indexed (e.g. semantic purging off) *)
          | Entry _ ->
              unplace st id.sn;
              (match ann with
              | Annotation.Unrelated | Annotation.Kenum _ -> ()
              | Annotation.Tag g -> (
                  match Int_tbl.find st.tags g with
                  | c when cell_is id c -> Int_tbl.remove st.tags g
                  | _ | (exception Not_found) -> ())
              | Annotation.Enum preds ->
                  List.iter
                    (fun (p : Msg_id.t) ->
                      match Int_tbl.find vs.senders p.sender with
                      | exception Not_found -> ()
                      | pst -> (
                          match Int_tbl.find pst.named p.sn with
                          | exception Not_found -> ()
                          | bucket -> (
                              match List.filter (fun c -> not (cell_is id c)) bucket with
                              | [] -> Int_tbl.remove pst.named p.sn
                              | rest -> Int_tbl.replace pst.named p.sn rest)))
                    preds);
              vs.live <- vs.live - 1;
              if vs.live = 0 then prune t))

(* Reverse-direction probes: would some queued entry of the view
   obsolete a fresh (id, ann)? Only bounded-fan-in lookups.
   - Tag: the sender's tag slot, if held by a higher sn.
   - Enum: the entries that enumerate [id] as a predecessor.
   - Kenum: same-sender entries within the widest queued window above
     [id.sn] — skipped entirely when the high-water mark shows nothing
     queued above [id.sn]. The Enum and Kenum checks do not depend on
     the fresh message's own annotation. *)

let rec named_newer (id : Msg_id.t) = function
  | [] -> false
  | Nil :: rest -> named_newer id rest
  | Entry e :: rest ->
      ((not (Msg_id.equal e.id id))
      && (e.id.Msg_id.sender <> id.sender || id.sn < e.id.Msg_id.sn))
      || named_newer id rest

let rec kenum_probe st (id : Msg_id.t) d lim =
  d <= lim
  && ((match find st (id.sn + d) with
      | Entry { ann = Annotation.Kenum bm; _ } -> Bitvec.get bm d
      | Entry _ | Nil -> false)
     || kenum_probe st id (d + 1) lim)

let covered st (id : Msg_id.t) ~tag =
  (match tag with Entry e -> e.id.Msg_id.sn > id.sn | Nil -> false)
  || (Int_tbl.length st.named > 0
     && match Int_tbl.find st.named id.sn with
        | bucket -> named_newer id bucket
        | exception Not_found -> false)
  || (st.hwm > id.sn && st.kwin > 0 && kenum_probe st id 1 (Int.min st.kwin (st.hwm - id.sn)))

let tag_slot st = function
  | Annotation.Tag g when Int_tbl.length st.tags > 0 -> (
      match Int_tbl.find st.tags g with c -> c | exception Not_found -> Nil)
  | Annotation.Tag _ | Annotation.Unrelated | Annotation.Enum _ | Annotation.Kenum _ -> Nil

let obsoleted (t : 'h t) ~view ~(id : Msg_id.t) ~ann =
  match find_view view t.views with
  | exception Not_found -> false
  | vs -> (
      match Int_tbl.find vs.senders id.sender with
      | exception Not_found -> false
      | st -> covered st id ~tag:(tag_slot st ann))

let seq_of = function Entry e -> e.seq | Nil -> -1

(* Forward: queued entries the fresh message obsoletes. Probes mirror
   Annotation.obsoletes with the fresh message as newer. *)
let rec enum_victims vs (id : Msg_id.t) acc = function
  | [] -> acc
  | (p : Msg_id.t) :: rest ->
      let acc =
        if Msg_id.equal p id then acc
        else
          match lookup vs p with
          | Entry e as c
            when (e.id.Msg_id.sender <> id.sender || e.id.Msg_id.sn < id.sn)
                 && not (List.memq c acc) ->
              c :: acc
          | Entry _ | Nil -> acc
      in
      enum_victims vs id acc rest

(* One ring probe per set distance [d] that can reach a queued sn
   ([lo <= sn - d <= hwm]); the bitmap walk skips clear words whole. *)
let rec kenum_walk st sn bm d lim acc =
  match Bitvec.next bm d with
  | 0 -> acc
  | d when d > lim -> acc
  | d ->
      let acc = match find st (sn - d) with Nil -> acc | c -> c :: acc in
      kenum_walk st sn bm (d + 1) lim acc

let kenum_victims st sn bm =
  if st.count = 0 then [] else kenum_walk st sn bm (Int.max 1 (sn - st.hwm)) (sn - st.lo) []

let keep_fresh = ([], false)

let drop_fresh = ([], true)

let to_victim = function
  | Entry e -> { victim_id = e.id; victim_ann = e.ann; victim_handle = e.handle }
  | Nil -> assert false

let plan (t : 'h t) ~view ~(id : Msg_id.t) ~ann =
  match find_view view t.views with
  | exception Not_found -> keep_fresh
  | vs ->
      let st = sender vs id.sender in
      (* The Tag slot answers both directions: a lower sn there is the
         victim, a higher one makes the fresh message obsolete. *)
      let tag = tag_slot st ann in
      let victims =
        match ann with
        | Annotation.Unrelated -> []
        | Annotation.Tag _ -> (
            match tag with Entry e when e.id.Msg_id.sn < id.sn -> [ tag ] | Entry _ | Nil -> [])
        | Annotation.Enum preds -> enum_victims vs id [] preds
        | Annotation.Kenum bm -> kenum_victims st id.sn bm
      in
      let drop = covered st id ~tag in
      match victims with
      | [] -> if drop then drop_fresh else keep_fresh
      | [ c ] -> ([ to_victim c ], drop)
      | _ ->
          ( List.map to_victim
              (List.sort (fun a b -> Int.compare (seq_of a) (seq_of b)) victims),
            drop )
