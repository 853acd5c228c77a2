(* Output check for a benchmark run.

   Two independent verdicts over the same recorded execution:

   - [exact]: a linear pass over every multicast and every delivery of
     the run. Integrity (no creation, no duplication), per-sender FIFO
     order, same-view delivery, view agreement, and completeness: in
     every view a process leaves through a consecutive install (or
     ends the run in, alive), each message multicast in that view is
     delivered there or covered by a delivered message through the
     transitive obsolescence relation.
   - [oracle]: {!Svs_core.Checker}, the repository's safety oracle,
     fed one chunk per consecutive view pair: the last [oracle_cap]
     messages of the first view and the first [oracle_cap] of the
     second (a single-view run: its first messages). Its coverage
     closure is quadratic in the multicasts it holds, hence the cap.
     Workloads without annotations use [verify_strict_vs].

   The log is compact: one int per event, [sender lsl 40 lor sn] for a
   delivery and [-(view_id + 1)] for an installed view. *)

module Ivec = Util.Ivec
module View = Svs_core.View
module Checker = Svs_core.Checker
module Annotation = Svs_obs.Annotation
module Msg_id = Svs_obs.Msg_id

type log = {
  mc_view : Ivec.t;  (** View id in which sn (from node 0) was multicast. *)
  ann : int -> Annotation.t;
  views : (int, View.t) Hashtbl.t;
  plogs : Ivec.t array;
  alive : bool array;  (** Process alive (a member) when the run ended. *)
  window : int;  (** Longest obsolescence distance in the stream. *)
  disagreements : int;
      (** Installs whose membership differed from an earlier install of
          the same view id (view agreement, checked as recorded). *)
}

let publisher = 0

let sn_mask = (1 lsl 40) - 1

let data_event ~sender ~sn = (sender lsl 40) lor sn

let view_event v = -(v.View.id + 1)

let n_mc log = Ivec.length log.mc_view

let related log =
  let r = ref false in
  for sn = 0 to n_mc log - 1 do
    if log.ann sn <> Annotation.Unrelated then r := true
  done;
  !r

(* One process's log split into view segments: (view id, delivered sns). *)
let segments plog =
  let segs = ref [] in
  let cur = ref None in
  let close () = match !cur with Some (v, ds) -> segs := (v, List.rev ds) :: !segs | None -> () in
  Ivec.iter
    (fun ev ->
      if ev < 0 then begin
        close ();
        cur := Some (-ev - 1, [])
      end
      else
        match !cur with
        | Some (v, ds) -> cur := Some (v, ev :: ds)
        | None -> cur := Some (-1, [ ev ]))
    plog;
  close ();
  List.rev !segs

type verdict = { failed : int; problems : string list }

let exact log =
  let failed = ref 0 in
  let problems = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr failed;
        if List.length !problems < 8 then problems := s :: !problems)
      fmt
  in
  let n = n_mc log in
  if log.disagreements > 0 then fail "%d installs disagreed on a view's membership" log.disagreements;
  Array.iteri
    (fun p plog ->
      let seen = Bytes.make n '\000' in
      let last = ref (-1) in
      let segs = segments plog in
      let nsegs = List.length segs in
      List.iteri
        (fun i (v, ds) ->
          if v < 0 then fail "p%d delivered before its first install" p;
          let delivered = Bytes.make n '\000' in
          List.iter
            (fun ev ->
              let sender = ev lsr 40 and sn = ev land sn_mask in
              if sender <> publisher || sn >= n then fail "p%d delivered unknown %d:%d" p sender sn
              else begin
                if Bytes.get seen sn <> '\000' then fail "p%d delivered 0:%d twice" p sn;
                Bytes.set seen sn '\001';
                if sn <= !last then fail "p%d delivered 0:%d after 0:%d (FIFO)" p sn !last;
                last := sn;
                if Ivec.get log.mc_view sn <> v then
                  fail "p%d delivered 0:%d (view %d) in view %d" p sn (Ivec.get log.mc_view sn) v;
                Bytes.set delivered sn '\001'
              end)
            ds;
          let next = List.nth_opt segs (i + 1) in
          let owes =
            match next with
            | Some (v', _) -> v' = v + 1
            | None -> i = nsegs - 1 && log.alive.(p)
          in
          if owes && v >= 0 then begin
            (* Messages of view v form one contiguous sn range (a single
               publisher, views monotonic). Walk it backwards so a
               message's covering successors are resolved first. *)
            let covered = Bytes.make n '\000' in
            let hi = ref (-1) and lo = ref max_int in
            for sn = 0 to n - 1 do
              if Ivec.get log.mc_view sn = v then begin
                if sn > !hi then hi := sn;
                if sn < !lo then lo := sn
              end
            done;
            for sn = !hi downto !lo do
              let c =
                Bytes.get delivered sn <> '\000'
                ||
                let found = ref false in
                let j = ref (sn + 1) in
                while (not !found) && !j <= min !hi (sn + log.window) do
                  if
                    Bytes.get covered !j <> '\000'
                    && Annotation.obsoletes
                         ~older:(Msg_id.make ~sender:publisher ~sn, log.ann sn)
                         ~newer:(Msg_id.make ~sender:publisher ~sn:!j, log.ann !j)
                  then found := true;
                  incr j
                done;
                !found
              in
              if c then Bytes.set covered sn '\001'
              else fail "p%d neither delivered nor covered 0:%d of view %d" p sn v
            done
          end)
        segs)
    log.plogs;
  { failed = !failed; problems = List.rev !problems }

(* Feed one chunk into a fresh checker: the multicasts [keep] selects
   among the views [view_ids], and each process's installs of those
   views with its deliveries of the kept messages. [keep] selects a
   suffix of the first view's messages and a prefix of the second's;
   with FIFO delivery from one publisher the filtered logs are
   themselves a valid execution of the pair. *)
let oracle_chunk log ~view_ids ~keep =
  let c = Checker.create () in
  let n = n_mc log in
  for sn = 0 to n - 1 do
    let v = Ivec.get log.mc_view sn in
    if List.mem v view_ids && keep sn then
      Checker.record_multicast c
        { Checker.id = Msg_id.make ~sender:publisher ~sn; ann = log.ann sn; view_id = v }
  done;
  Array.iteri
    (fun p plog ->
      List.iter
        (fun (v, ds) ->
          if List.mem v view_ids then begin
            Checker.record_install c ~p (Hashtbl.find log.views v);
            List.iter
              (fun ev ->
                let sender = ev lsr 40 and sn = ev land sn_mask in
                if sn >= n || keep sn then
                  Checker.record_delivery c ~p
                    {
                      Checker.id = Msg_id.make ~sender ~sn;
                      ann = (if sn < n then log.ann sn else Annotation.Unrelated);
                      view_id = v;
                    })
              ds
          end)
        (segments plog))
    log.plogs;
  c

(* Messages per view handed to the oracle (its closure is quadratic). *)
let oracle_cap = 2000

let oracle log =
  let strict = not (related log) in
  let n = n_mc log in
  let lo = Hashtbl.create 16 and hi = Hashtbl.create 16 in
  for sn = n - 1 downto 0 do
    Hashtbl.replace lo (Ivec.get log.mc_view sn) sn
  done;
  for sn = 0 to n - 1 do
    Hashtbl.replace hi (Ivec.get log.mc_view sn) sn
  done;
  let bound tbl v default = Option.value (Hashtbl.find_opt tbl v) ~default in
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) log.views [] |> List.sort compare in
  let chunks =
    match ids with
    | [ v ] -> [ ([ v ], fun sn -> sn < bound lo v 0 + (2 * oracle_cap)) ]
    | _ ->
        List.filter_map
          (fun v ->
            if List.mem (v + 1) ids then
              let suffix = bound hi v (-1) - oracle_cap
              and prefix = bound lo (v + 1) max_int + oracle_cap in
              let keep sn =
                let sv = Ivec.get log.mc_view sn in
                (sv = v && sn > suffix) || (sv = v + 1 && sn < prefix)
              in
              Some ([ v; v + 1 ], keep)
            else None)
          ids
  in
  let violations =
    List.concat_map
      (fun (view_ids, keep) ->
        let c = oracle_chunk log ~view_ids ~keep in
        if strict then Checker.verify_strict_vs c else Checker.verify c)
      chunks
  in
  {
    failed = List.length violations;
    problems =
      List.filteri (fun i _ -> i < 8) (List.map Checker.violation_to_string violations);
  }

(* The inverted self-check: the same log with one delivery at a
   receiver replayed twice must fail both verdicts. The replayed
   delivery lies inside the oracle's window: an early one for a
   single-view run, the last one of the first view otherwise. *)
let corrupted log =
  let p = 1 in
  let src = log.plogs.(p) in
  let target =
    match segments src with
    | (_, ds) :: _ when Hashtbl.length log.views > 1 && ds <> [] -> List.nth ds (List.length ds - 1)
    | _ -> (
        match List.concat_map snd (segments src) |> List.filter (fun ev -> ev land sn_mask > 0) with
        | ev :: _ -> ev
        | [] -> -1)
  in
  let dst = Ivec.create () in
  let duplicated = ref false in
  Ivec.iter
    (fun ev ->
      Ivec.push dst ev;
      if (not !duplicated) && ev = target then begin
        Ivec.push dst ev;
        duplicated := true
      end)
    src;
  { log with plogs = Array.mapi (fun i l -> if i = p then dst else l) log.plogs }

type report = {
  exact_v : verdict;
  oracle_v : verdict;
  self_check_ok : bool;  (** The corrupted log failed both verdicts. *)
}

let run log =
  let exact_v = exact log in
  let oracle_v = oracle log in
  let bad = corrupted log in
  let self_check_ok = (exact bad).failed > 0 && (oracle bad).failed > 0 in
  { exact_v; oracle_v; self_check_ok }

let ok r = r.exact_v.failed = 0 && r.oracle_v.failed = 0 && r.self_check_ok
