module Engine = Svs_sim.Engine
module Heartbeat = Svs_detector.Heartbeat
module Ct = Svs_consensus.Chandra_toueg
module Protocol = Svs_core.Protocol
module Types = Svs_core.Types
module View = Svs_core.View
module Wire_codec = Svs_core.Wire_codec
module Codec = Svs_codec.Codec
module Metrics = Svs_telemetry.Metrics
module Trace = Svs_telemetry.Trace
module Msg_id = Svs_obs.Msg_id
module Shed = Svs_obs.Shed
module Annotation = Svs_obs.Annotation
module Int_tbl = Svs_obs.Int_tbl

let src = Logs.Src.create "svs.rt" ~doc:"SVS real-time node"

module Log = (val Logs.src_log src : Logs.LOG)

(* Graceful escalation for a persistently slow member, staged on the
   time its link has spent continuously over the hard watermark:
   first the transport stalls the link and sheds obsolete frames (the
   backpressure policy), then the node reports it (log + trace +
   counter), and finally — if the operator allowed it — suspects it,
   which hands it to the ordinary suspicion → view-change path: the
   group agrees on a view without the laggard rather than one node
   unilaterally expelling it. *)
type slow_member_policy = {
  report_after : float;
  evict_after : float option;  (** [None]: never escalate to suspicion. *)
}

let default_slow_member = { report_after = 2.0; evict_after = Some 15.0 }

type config = {
  semantic : bool;
  heartbeat : Heartbeat.config;
  stability_period : float option;
  park_timeout : float option;
  tracer : Trace.t;
  metrics : Metrics.t option;
  flush_interval : float;
      (* Mesh batching horizon (seconds); 0. flushes on every send. *)
  hostile : Tcp_mesh.hostile_policy;
  divergence_period : float option;
      (* Check the digest gossip (piggybacked on heartbeats) at this
         period; None disables divergence self-healing. *)
  backpressure : Tcp_mesh.backpressure_policy;
  slow_member : slow_member_policy;
  max_frame : int;
      (* Largest single inbound frame the mesh will buffer. The view
         change's PRED echoes every unstable message as one frame, so
         groups with large payloads or deep unstable backlogs need
         this above the flush size or the exchange resets the link. *)
}

let default_config =
  {
    semantic = true;
    heartbeat = Heartbeat.default_config;
    stability_period = Some 1.0;
    park_timeout = None;
    tracer = Trace.nop;
    metrics = None;
    flush_interval = 0.001;
    hostile = Tcp_mesh.default_hostile_policy;
    divergence_period = None;
    backpressure = Tcp_mesh.default_backpressure;
    slow_member = default_slow_member;
    max_frame = 8 * 1024 * 1024;
  }

(* How many consecutive divergence checks must agree before a node
   self-demotes: one mismatched sample can be a legitimate in-flight
   difference, a persistent one is corruption. *)
let divergence_rounds = 3

(* Packets on the mesh: protocol wire messages, consensus messages for
   a view-change instance, heartbeats. A heartbeat carries the
   sender's replicated-state digest — the divergence gossip rides the
   liveness traffic for free. *)
type 'p packet =
  | Proto of 'p Types.wire
  | Cons of { view_id : int; msg : 'p Types.proposal Ct.msg }
  | Beat of { view_id : int; digest : int }

let write_packet pc w = function
  | Proto wire ->
      Codec.Writer.uint8 w 0;
      Wire_codec.write_wire pc w wire
  | Cons { view_id; msg } ->
      Codec.Writer.uint8 w 1;
      Codec.Writer.varint w view_id;
      Ct.write_msg (Wire_codec.write_proposal pc) w msg
  | Beat { view_id; digest } ->
      Codec.Writer.uint8 w 2;
      (* Zigzag: a joiner's placeholder view id is negative. *)
      Codec.Writer.zigzag w view_id;
      Codec.Writer.zigzag w digest

let read_packet pc r =
  match Codec.Reader.uint8 r with
  | 0 -> Proto (Wire_codec.read_wire pc r)
  | 1 ->
      let view_id = Codec.Reader.varint r in
      let msg = Ct.read_msg (Wire_codec.read_proposal pc) r in
      Cons { view_id; msg }
  | 2 ->
      let view_id = Codec.Reader.zigzag r in
      let digest = Codec.Reader.zigzag r in
      Beat { view_id; digest }
  | n -> raise (Codec.Malformed (Printf.sprintf "packet tag %d" n))

(* How many sequence numbers one Lease record covers. Leases are
   extended ahead of use: when the headroom above the current sn drops
   to [lease_low_water], the next ceiling is appended to the WAL and
   rides the periodic group-commit sync — so the multicast hot path
   almost never waits on an fsync. The blocking fallback (sn caught up
   with the durable ceiling) only fires when publishing outruns a whole
   commit interval's worth of headroom. *)
let lease_chunk = 8192

let lease_low_water = 2048

(* Per-sender runtime state. [sns]/[views]/[times] is a FIFO ring (of
   power-of-two capacity) of the wall-clock arrival stamps of the
   sender's messages not yet delivered, in sn order: accepted sns of
   one sender strictly increase and delivery is FIFO, so a delivery
   pops every stamp below its sn (those messages were purged).
   [wal_floor] is the last delivered sn not yet appended to the WAL:
   floors are coalesced to one record per sender per group commit. *)
type origin = {
  mutable sns : int array;
  mutable views : int array;
  mutable times : float array;
  mutable head : int;
  mutable len : int;
  mutable last : int; (* highest sn stamped *)
  mutable wal_floor : int; (* -1: nothing to append *)
}

let origin_capacity = 16

let new_origin () =
  {
    sns = Array.make origin_capacity 0;
    views = Array.make origin_capacity 0;
    times = Array.make origin_capacity 0.0;
    head = 0;
    len = 0;
    last = -1;
    wal_floor = -1;
  }

let stamp o ~sn ~view ~at =
  let cap = Array.length o.sns in
  if o.len = cap then begin
    let reorder a fill =
      let b = Array.make (2 * cap) fill in
      for i = 0 to cap - 1 do
        b.(i) <- a.((o.head + i) land (cap - 1))
      done;
      b
    in
    o.sns <- reorder o.sns 0;
    o.views <- reorder o.views 0;
    o.times <- reorder o.times 0.0;
    o.head <- 0
  end;
  let i = (o.head + o.len) land (Array.length o.sns - 1) in
  o.sns.(i) <- sn;
  o.views.(i) <- view;
  o.times.(i) <- at;
  o.len <- o.len + 1

let unstamp o =
  o.head <- (o.head + 1) land (Array.length o.sns - 1);
  o.len <- o.len - 1

type 'p t = {
  loop : Loop.t;
  me : int;
  engine : Engine.t; (* timer wheel for the reused automata *)
  started_at : float;
  mutable proto : 'p Protocol.t;
  wal : Wal.t option;
  mutable leased : int; (* lease ceiling appended to the WAL *)
  mutable durable_leased : int; (* lease ceiling known fsynced *)
  pkt_writer : Codec.Writer.t; (* reused for every outbound packet *)
  mutable pkt_wire : 'p Types.wire option; (* the DATA wire [pkt_writer] holds *)
  on_synced : View.t -> string option -> unit;
  mesh : Tcp_mesh.t;
  payload_codec : 'p Wire_codec.payload_codec;
  hb : Heartbeat.t;
  instances : (int, 'p Types.proposal Ct.t) Hashtbl.t;
  cons_stash : (int, (int * 'p Types.proposal Ct.msg) list ref) Hashtbl.t;
  on_deliverable : unit -> unit;
  mutable stopped : bool;
  tracer : Trace.t;
  semantic : bool;
  metrics : Metrics.t option;
  state_transfer_fn : (unit -> string option) option;
  peers_ids : int list;
  park_timeout : float option;
  (* (view id, first seen blocked at) for the park watchdog. *)
  mutable blocked_obs : (int * float) option;
  mutable park_epoch : float option;
  (* Exclusion (or quorum loss) fires mid-drain; the protocol swap is
     deferred to the next engine tick. *)
  mutable want_rejoin : bool;
  (* Divergence self-healing: last digest reported by each peer (with
     the view it was computed in), the consecutive-mismatch streak, and
     whether a self-demotion is in flight. *)
  peer_digests : (int, int * int) Hashtbl.t;
  mutable div_streak : int;
  mutable div_last : (int * int) option;
  mutable heal_pending : bool;
  app_digest : (unit -> int) option;
  c_divergence : Metrics.Counter.t;
  suspicions : Metrics.Counter.t;
  c_slow_reports : Metrics.Counter.t;
  slow_member : slow_member_policy;
  (* Admission control: one-shot callbacks fired by the escalation
     timer once {!would_block} clears. *)
  mutable ready_callbacks : (unit -> unit) list;
  (* Peers currently flagged by the slow-member report stage (cleared
     when their link drops back under the hard watermark). *)
  reported_slow : (int, unit) Hashtbl.t;
  (* Peers the escalation is evicting. Their heartbeats are ignored —
     a slow consumer is alive and still beating, so without this the
     beat would rescind the forced suspicion before the view change
     completes. Cleared once the link drains (the peer recovered, or
     its backlog was dropped when a view without it installed). *)
  evicting : (int, unit) Hashtbl.t;
  delivery_latency : Metrics.Histogram.t;
  merge_spans : Metrics.Histogram.t;
  (* Arrival stamps and pending WAL floors, per sender. Stamps of view
     [v] are also swept when the View_change for a later view is
     delivered (by then every view-[v] message that will ever be
     delivered has been). *)
  origins : origin Int_tbl.t;
}

let id t = t.me

let view t = Protocol.current_view t.proto

let is_member t =
  (not t.stopped) && Protocol.alive t.proto && View.mem t.me (view t)

let is_joining t = (not t.stopped) && Protocol.joining t.proto

(* The incremental checksum the divergence gossip compares: installed
   view, merged floors, and the application snapshot digest. Cheap —
   the floors list is one entry per member. *)
let current_digest t =
  let v = view t in
  let app = match t.app_digest with Some f -> f () | None -> 0 in
  Hashtbl.hash (v.View.id, v.View.members, List.sort compare (Protocol.floors t.proto), app)

let divergences t = Metrics.Counter.value t.c_divergence

let purged t = Protocol.purged_count t.proto

let purged_at t site = Protocol.purged_at t.proto site

let bytes_out t = Tcp_mesh.bytes_out t.mesh

let bytes_in t = Tcp_mesh.bytes_in t.mesh

let suspicions t = Metrics.Counter.value t.suspicions

let delivery_latency t = t.delivery_latency

let pending_to t ~dst = Tcp_mesh.pending_bytes t.mesh ~dst

let origin t s =
  match Int_tbl.find t.origins s with
  | o -> o
  | exception Not_found ->
      let o = new_origin () in
      Int_tbl.replace t.origins s o;
      o

(* Duplicates and sns below one already stamped are never accepted. *)
let note_arrival t (d : 'p Types.data) =
  let o = origin t d.Types.id.Msg_id.sender in
  if d.Types.id.Msg_id.sn > o.last then begin
    o.last <- d.Types.id.Msg_id.sn;
    stamp o ~sn:d.Types.id.Msg_id.sn ~view:d.Types.view_id ~at:(Loop.now t.loop)
  end

let pending_stamps t = Int_tbl.fold (fun _ o acc -> acc + o.len) t.origins 0

(* Append the coalesced delivery floors. Runs before every sync, so a
   completed sync covers every delivery made before it. *)
let append_floors t w =
  Int_tbl.iter
    (fun sender o ->
      if o.wal_floor >= 0 then begin
        Wal.append w (Wal.Floor { sender; sn = o.wal_floor });
        o.wal_floor <- -1
      end)
    t.origins

let wal_sync t w =
  append_floors t w;
  Wal.sync w

let send_packet t ~dst packet =
  let w = t.pkt_writer in
  (* A multicast comes here once per peer with the same physical
     [Wdata] value: encode it once and hand every peer those bytes. *)
  let cached = match (packet, t.pkt_wire) with Proto wire, Some c -> wire == c | _ -> false in
  if not cached then begin
    t.pkt_wire <- None;
    Codec.Writer.clear w;
    write_packet t.payload_codec w packet;
    match packet with Proto (Types.Wdata _ as wire) -> t.pkt_wire <- Some wire | _ -> ()
  end;
  (* Annotated data frames are the ones semantic shedding may purge
     from a congested link's queue (a newer queued frame obsoleting
     them); everything else — control traffic, unannotated data — is
     always retained. *)
  let meta =
    match packet with
    | Proto (Types.Wdata d) when d.Types.ann <> Annotation.Unrelated ->
        Some { Shed.id = d.Types.id; ann = d.Types.ann; view = d.Types.view_id }
    | _ -> None
  in
  (* The writer's bytes move straight into the mesh batch — no
     per-packet string, no per-packet syscall. *)
  Tcp_mesh.send_writer t.mesh ~dst ?meta w

(* A node stopped from a callback (e.g. [on_deliverable]) acts on
   nothing further. *)
let rec drain t =
  let outs = Protocol.take_outputs t.proto in
  List.iter (fun o -> if not t.stopped then handle_output t o) outs;
  if (not t.stopped) && Protocol.to_deliver_length t.proto > 0 then t.on_deliverable ()

and handle_output t = function
  | Types.Send { dst; wire } ->
      (match wire with
      | Types.Wdata d ->
          if Trace.enabled t.tracer then
            Trace.emit t.tracer
              (Trace.Tx
                 {
                   node = t.me;
                   dst;
                   sender = d.Types.id.Msg_id.sender;
                   sn = d.Types.id.Msg_id.sn;
                   view_id = d.Types.view_id;
                 })
      | _ -> ());
      send_packet t ~dst (Proto wire)
  | Types.Installed v ->
      Log.info (fun m -> m "node %d installed %a" t.me View.pp v);
      (* The installed view is the recovery anchor: make it durable
         before acting in it. *)
      (match t.wal with
      | Some w ->
          append_floors t w;
          Wal.append_durable w (Wal.Install v)
      | None -> ());
      (* A member listed in the new view is alive by agreement, so a
         written-off stream towards it belongs to a dead incarnation:
         forgive it and open a fresh FIFO stream. *)
      List.iter
        (fun p ->
          if p <> t.me && Tcp_mesh.written_off t.mesh ~dst:p then
            Tcp_mesh.forget_peer t.mesh ~dst:p)
        v.View.members;
      (* Frames queued towards peers the group just agreed are out are
         dead weight against the mesh budget: drop them. (Their next
         incarnation re-enters via JOIN/SYNC on a fresh stream.) The
         flush first pushes whatever the kernel will still take — on a
         healthy link that includes the consensus DECIDE telling the
         excluded peer about this very view, which it needs to start
         rejoining; only the undeliverable backlog is dropped. *)
      if List.exists (fun p -> p <> t.me && not (List.mem p v.View.members)) t.peers_ids
      then begin
        Tcp_mesh.flush t.mesh;
        List.iter
          (fun p ->
            if p <> t.me && not (List.mem p v.View.members) then
              ignore (Tcp_mesh.drop_pending t.mesh ~dst:p : int))
          t.peers_ids
      end
  | Types.Excluded v ->
      Log.warn (fun m -> m "node %d excluded from %a" t.me View.pp v);
      (* Primary-component mode: exclusion learned after a cut (the
         majority moved on without us) is the same fate as parking —
         come back through the probing-joiner path instead of dying.
         A divergence self-demotion asked for this exclusion and
         always rejoins. *)
      if t.park_timeout <> None || t.heal_pending then t.want_rejoin <- true
      else t.stopped <- true
  | Types.Synced { view; app } ->
      Log.info (fun m -> m "node %d synced into %a" t.me View.pp view);
      (match t.park_epoch with
      | Some t0 ->
          (* Merge-on-heal completed: back in the primary component as
             a new incarnation. *)
          let dt = Loop.now t.loop -. t0 in
          t.park_epoch <- None;
          Metrics.Histogram.observe t.merge_spans dt;
          if Trace.enabled t.tracer then
            Trace.emit t.tracer
              (Trace.Merge
                 { node = t.me; view_id = view.View.id; parked_ms = int_of_float (dt *. 1000.0) })
      | None -> ());
      (* Re-synced state is authoritative: restart the divergence
         bookkeeping from scratch. *)
      t.heal_pending <- false;
      t.div_streak <- 0;
      t.div_last <- None;
      Hashtbl.reset t.peer_digests;
      t.on_synced view app
  | Types.Propose { view_id; proposal } -> start_instance t ~view_id proposal

and start_instance t ~view_id proposal =
  if not (Hashtbl.mem t.instances view_id) then begin
    let members = (view t).View.members in
    let inst =
      Ct.create t.engine ~me:t.me ~members
        ~suspects:(fun p -> Heartbeat.suspects t.hb p)
        ~send:(fun ~dst msg -> send_packet t ~dst (Cons { view_id; msg }))
        ~on_decide:(fun v ->
          Protocol.decided t.proto ~view_id v;
          drain t)
        proposal
    in
    Hashtbl.replace t.instances view_id inst;
    (match Hashtbl.find_opt t.cons_stash view_id with
    | None -> ()
    | Some stash ->
        let msgs = List.rev !stash in
        Hashtbl.remove t.cons_stash view_id;
        List.iter (fun (src, msg) -> Ct.on_message inst ~src msg) msgs);
    drain t
  end

let on_suspicion t =
  if is_member t then begin
    Protocol.notify_suspicion_change t.proto;
    let suspected = Heartbeat.suspected_set t.hb in
    if suspected <> [] then Protocol.trigger_view_change t.proto ~leave:suspected ();
    drain t
  end

let on_packet t ~src packet =
  if not t.stopped then
    match packet with
    | Beat { view_id; digest } ->
        if not (Hashtbl.mem t.evicting src) then begin
          Hashtbl.replace t.peer_digests src (view_id, digest);
          Heartbeat.on_heartbeat t.hb ~src
        end
    | Proto wire ->
        (match wire with
        | Types.Wdata d ->
            note_arrival t d;
            if Trace.enabled t.tracer then
              Trace.emit t.tracer
                (Trace.Rx
                   {
                     node = t.me;
                     src;
                     sender = d.Types.id.Msg_id.sender;
                     sn = d.Types.id.Msg_id.sn;
                     view_id = d.Types.view_id;
                   })
        | _ -> ());
        Protocol.receive t.proto ~src wire;
        drain t
    | Cons { view_id; msg } -> (
        match Hashtbl.find_opt t.instances view_id with
        | Some inst ->
            Ct.on_message inst ~src msg;
            drain t
        | None ->
            if view_id >= (view t).View.id then begin
              let stash =
                match Hashtbl.find_opt t.cons_stash view_id with
                | Some s -> s
                | None ->
                    let s = ref [] in
                    Hashtbl.replace t.cons_stash view_id s;
                    s
              in
              stash := (src, msg) :: !stash
            end)

(* A joiner nags the group — cycling contacts, since any single one may
   be blocked, excluded, or dead — until a sponsor's SYNC lands. *)
let start_join_nag t =
  let contacts = List.filter (fun p -> p <> t.me) t.peers_ids in
  let next = ref 0 in
  ignore
    (Loop.every t.loop ~period:0.25 (fun () ->
         if t.stopped || not (Protocol.joining t.proto) then false
         else begin
           (match contacts with
           | [] -> ()
           | _ ->
               let contact = List.nth contacts (!next mod List.length contacts) in
               incr next;
               Protocol.join_request t.proto ~contact;
               drain t);
           true
         end)
      : Loop.timer)

(* Fallen out of the primary component (parked on quorum loss, or
   excluded while cut off): swap the protocol for a recovering joiner
   of the same identity and probe every peer until a sponsor answers.
   The durable floors make re-entry duplicate-free; the sequence lease
   keeps the new incarnation's sns fresh. *)
let rejoin_via_probe t =
  let recovery =
    {
      Protocol.view_id = (Protocol.current_view t.proto).View.id;
      floors = Protocol.floors t.proto;
      next_sn = Stdlib.max t.leased (Protocol.next_sn t.proto);
    }
  in
  Hashtbl.iter (fun _ inst -> Ct.stop inst) t.instances;
  Hashtbl.reset t.instances;
  Hashtbl.reset t.cons_stash;
  t.blocked_obs <- None;
  t.leased <- recovery.Protocol.next_sn;
  let proto =
    Protocol.create_joiner ~me:t.me ~recovery ~semantic:t.semantic ~tracer:t.tracer
      ?metrics:t.metrics
      ~clock:(fun () -> Loop.now t.loop)
      ~suspects:(fun p -> Heartbeat.suspects t.hb p)
      ()
  in
  (match t.state_transfer_fn with Some f -> Protocol.set_state_transfer proto f | None -> ());
  t.proto <- proto;
  (* Written-off peers are alive on the far side of the cut: forgive
     them so the mesh keeps dialing across the partition. *)
  List.iter
    (fun p -> if p <> t.me && Tcp_mesh.written_off t.mesh ~dst:p then Tcp_mesh.forget_peer t.mesh ~dst:p)
    t.peers_ids;
  start_join_nag t

(* Quorum loss: the park deadline expired with this node still blocked
   in the same view change — it has lost the majority of its view. *)
let park t =
  if is_member t then begin
    Protocol.park t.proto;
    t.park_epoch <- Some (Loop.now t.loop);
    rejoin_via_probe t
  end

let parked t = t.park_epoch <> None

(* One round of the divergence check. Digests legitimately differ
   while traffic is in flight (floors advance at different times), so
   a node only counts a round against itself when it is quiescent and
   {e every} other member of its view reports one common digest that
   differs from its own — and only a streak of such rounds demotes.
   The demotion is self-exclusion (the group installs a view without
   us) followed by the ordinary probing-joiner re-entry, so the whole
   JOIN/SYNC + state-transfer machinery heals the divergent replica. *)
let check_divergence t =
  if t.heal_pending then begin
    (* The exclusion we asked for can be ignored while the protocol is
       blocked: keep nudging until it lands. *)
    if is_member t && not (Protocol.blocked t.proto) then begin
      Protocol.trigger_view_change t.proto ~leave:[ t.me ] ();
      drain t
    end
  end
  else if
    is_member t
    && (not (Protocol.blocked t.proto))
    && Protocol.to_deliver_length t.proto = 0
  then begin
    let v = view t in
    let mine = current_digest t in
    let others = List.filter (fun p -> p <> t.me) v.View.members in
    let reports =
      List.filter_map
        (fun p ->
          match Hashtbl.find_opt t.peer_digests p with
          | Some (vid, d) when vid = v.View.id -> Some d
          | _ -> None)
        others
    in
    let odd_one_out =
      others <> []
      && List.length reports = List.length others
      &&
      match reports with
      | d :: rest when d <> mine -> List.for_all (fun x -> x = d) rest
      | _ -> false
    in
    if odd_one_out then begin
      (* Only the *same* disagreement counts towards the streak:
         in-flight traffic makes floors (and so digests) drift between
         checks — a healthy node momentarily behind its peers sees a
         different disagreement each round, while a genuinely corrupt
         quiescent replica freezes on one. *)
      let theirs = match reports with d :: _ -> d | [] -> assert false in
      (match t.div_last with
      | Some (pm, pd) when pm = mine && pd = theirs -> t.div_streak <- t.div_streak + 1
      | Some _ | None ->
          t.div_streak <- 1;
          t.div_last <- Some (mine, theirs));
      if t.div_streak >= divergence_rounds then begin
        Log.warn (fun m ->
            m "node %d: state digest diverged from the rest of view %d — self-demoting" t.me
              v.View.id);
        Metrics.Counter.incr t.c_divergence;
        if Trace.enabled t.tracer then
          Trace.emit t.tracer (Trace.Divergence { node = t.me; view_id = v.View.id });
        t.div_streak <- 0;
        t.div_last <- None;
        t.heal_pending <- true;
        Protocol.trigger_view_change t.proto ~leave:[ t.me ] ();
        drain t
      end
    end
    else begin
      t.div_streak <- 0;
      t.div_last <- None
    end
  end
  else begin
    t.div_streak <- 0;
    t.div_last <- None
  end

let multicast t ?ann payload =
  if t.stopped then Error `Not_member
  else begin
    (* A sequence number must be covered by a {e durable} lease before
       it goes on the wire, or a restarted incarnation could reuse it.
       The lease is extended ahead of use so the extension normally
       rides the periodic group-commit sync; only a publisher that
       exhausts the durable headroom blocks on fsync here. *)
    (match t.wal with
    | Some w ->
        let sn = Protocol.next_sn t.proto in
        if sn >= t.durable_leased then begin
          if sn >= t.leased then begin
            t.leased <- sn + lease_chunk;
            Wal.append w (Wal.Lease { next_sn = t.leased })
          end;
          wal_sync t w;
          t.durable_leased <- t.leased
        end
        else if t.leased - sn <= lease_low_water then begin
          t.leased <- sn + lease_chunk;
          Wal.append w (Wal.Lease { next_sn = t.leased })
        end
    | None -> ());
    let result = Protocol.multicast t.proto ?ann payload in
    (match result with Ok d -> note_arrival t d | Error _ -> ());
    drain t;
    result
  end

(* Admission control. {!multicast} never blocks the caller — a slow
   peer's frames queue (and shed) in the mesh — so a publisher that
   outruns the group indefinitely would exhaust the mesh budget. A
   well-behaved application checks {!would_block} (or uses
   {!try_multicast}) and resumes on {!on_ready}. *)
let would_block t = Tcp_mesh.would_block t.mesh

let try_multicast t ?ann payload =
  if t.stopped then Error `Not_member
  else if would_block t then Error `Would_block
  else
    (multicast t ?ann payload
      : (_, [ `Blocked | `Not_member ]) result
      :> (_, [ `Blocked | `Not_member | `Would_block ]) result)

let on_ready t f = t.ready_callbacks <- f :: t.ready_callbacks

let shed_frames t = Tcp_mesh.shed_frames t.mesh

let slow_reports t = Metrics.Counter.value t.c_slow_reports

let pause_reads t = Tcp_mesh.pause_reads t.mesh

let resume_reads t = Tcp_mesh.resume_reads t.mesh

(* One tick of the slow-member escalation: stage transitions are
   driven by the time each link has spent continuously over the hard
   watermark (tracked by the mesh), and the admission-control ready
   callbacks fire here once the mesh drains back under its gates. *)
let check_slow_members t =
  if t.ready_callbacks <> [] && not (would_block t) then begin
    let cbs = List.rev t.ready_callbacks in
    t.ready_callbacks <- [];
    List.iter (fun f -> f ()) cbs
  end;
  let p = t.slow_member in
  List.iter
    (fun (st : Tcp_mesh.peer_stat) ->
      if st.Tcp_mesh.over_hard_s <= 0.0 then begin
        Hashtbl.remove t.reported_slow st.Tcp_mesh.peer;
        Hashtbl.remove t.evicting st.Tcp_mesh.peer
      end
      else begin
        if st.Tcp_mesh.over_hard_s >= p.report_after
           && not (Hashtbl.mem t.reported_slow st.Tcp_mesh.peer)
        then begin
          Hashtbl.replace t.reported_slow st.Tcp_mesh.peer ();
          Metrics.Counter.incr t.c_slow_reports;
          Log.warn (fun m ->
              m "node %d: peer %d over the hard watermark for %.1fs (%d bytes pending, %d shed)"
                t.me st.Tcp_mesh.peer st.Tcp_mesh.over_hard_s st.Tcp_mesh.pending
                st.Tcp_mesh.shed);
          if Trace.enabled t.tracer then
            Trace.emit t.tracer
              (Trace.Backpressure
                 {
                   node = t.me;
                   peer = st.Tcp_mesh.peer;
                   stage = "reported";
                   pending = st.Tcp_mesh.pending;
                 })
        end;
        match p.evict_after with
        | Some deadline when st.Tcp_mesh.over_hard_s >= deadline ->
            (* Hand the laggard to the ordinary suspicion machinery:
               the group agrees on a view without it, rather than one
               node unilaterally expelling it. Its heartbeats are
               muted while [evicting] so the (alive, just unreadable)
               peer cannot rescind the suspicion mid-view-change. *)
            if not (Hashtbl.mem t.evicting st.Tcp_mesh.peer) then
              Log.warn (fun m ->
                  m "node %d: escalating slow peer %d to suspicion after %.1fs over watermark"
                    t.me st.Tcp_mesh.peer st.Tcp_mesh.over_hard_s);
            Hashtbl.replace t.evicting st.Tcp_mesh.peer ();
            Heartbeat.force_suspect t.hb st.Tcp_mesh.peer
        | Some _ | None -> ()
      end)
    (Tcp_mesh.peer_stats t.mesh)

let deliver t =
  if t.stopped then None
  else
    match Protocol.deliver t.proto with
    | None -> None
    | Some (Types.Data d) as r ->
        let sn = d.Types.id.Msg_id.sn in
        let o = origin t d.Types.id.Msg_id.sender in
        (* Delivery-floor updates ride the next sync: losing the tail
           only re-widens the floor, never narrows it below a delivery
           that was made durable. *)
        o.wal_floor <- sn;
        while o.len > 0 && o.sns.(o.head) < sn do
          unstamp o
        done;
        if o.len > 0 && o.sns.(o.head) = sn then begin
          Metrics.Histogram.observe t.delivery_latency (Loop.now t.loop -. o.times.(o.head));
          unstamp o
        end;
        r
    | Some (Types.View_change v) as r ->
        (* Sweep stamps of messages that can no longer be delivered
           (stale entries of finished views). A sender's views rise
           with its sns, so they are a prefix. *)
        Int_tbl.iter
          (fun _ o ->
            while o.len > 0 && o.views.(o.head) < v.View.id do
              unstamp o
            done)
          t.origins;
        r

let deliver_all t =
  let rec go acc = match deliver t with None -> List.rev acc | Some d -> go (d :: acc) in
  go []

let pending t = Protocol.to_deliver_length t.proto

let status_label t =
  if t.stopped then "stopped"
  else if Protocol.parked t.proto then "parked"
  else if Protocol.joining t.proto then "joining"
  else if Protocol.blocked t.proto then "blocked"
  else if Protocol.alive t.proto then "member"
  else "dead"

let wal_segment t = match t.wal with Some w -> Some (Wal.current_segment w) | None -> None

let status_json t =
  let b = Buffer.create 512 in
  let v = view t in
  Printf.bprintf b
    "{\"node\":%d,\"status\":\"%s\",\"uptime_s\":%.3f,\"view\":{\"id\":%d,\"members\":[%s]},"
    t.me (status_label t)
    (Loop.now t.loop -. t.started_at)
    v.View.id
    (String.concat "," (List.map string_of_int v.View.members));
  Printf.bprintf b "\"pending\":%d,\"purged\":%d,\"suspicions\":%d,\"next_sn\":%d,"
    (pending t) (purged t) (suspicions t)
    (Protocol.next_sn t.proto);
  Printf.bprintf b "\"floors\":{%s},"
    (String.concat ","
       (List.map
          (fun (sender, sn) -> Printf.sprintf "\"%d\":%d" sender sn)
          (List.sort compare (Protocol.floors t.proto))));
  (match wal_segment t with
  | Some seg -> Printf.bprintf b "\"wal\":{\"segment\":%d}," seg
  | None -> Printf.bprintf b "\"wal\":null,");
  let bp = Tcp_mesh.backpressure t.mesh in
  Printf.bprintf b
    "\"backpressure\":{\"soft\":%d,\"hard\":%d,\"budget\":%d,\"shed\":%b,\"total_pending\":%d,\"would_block\":%b,\"shed_frames\":%d,\"slow_reports\":%d},"
    bp.Tcp_mesh.soft bp.Tcp_mesh.hard bp.Tcp_mesh.budget bp.Tcp_mesh.shed
    (Tcp_mesh.total_pending t.mesh)
    (would_block t) (shed_frames t) (slow_reports t);
  Printf.bprintf b "\"bytes_out\":%d,\"bytes_in\":%d,\"peers\":[%s]}" (bytes_out t)
    (bytes_in t)
    (String.concat ","
       (List.map
          (fun (p : Tcp_mesh.peer_stat) ->
            (* The adaptive heartbeat timeout sits next to the flow
               state so an operator can tell a laggard (big pending,
               hard stage) from a lossy link (inflated timeout). *)
            let hb_timeout =
              try Heartbeat.timeout_of t.hb p.Tcp_mesh.peer with Invalid_argument _ -> 0.0
            in
            Printf.sprintf
              "{\"peer\":%d,\"up\":%b,\"pending\":%d,\"attempts\":%d,\"written_off\":%b,\"quarantined\":%b,\"hb_timeout_s\":%.3f,\"stage\":\"%s\",\"shed\":%d,\"over_hard_s\":%.3f,\"evicting\":%b}"
              p.Tcp_mesh.peer p.Tcp_mesh.up p.Tcp_mesh.pending p.Tcp_mesh.attempts
              p.Tcp_mesh.written_off p.Tcp_mesh.quarantined hb_timeout
              (Tcp_mesh.stage_name p.Tcp_mesh.stage)
              p.Tcp_mesh.shed p.Tcp_mesh.over_hard_s
              (Hashtbl.mem t.evicting p.Tcp_mesh.peer))
          (List.filter (fun (p : Tcp_mesh.peer_stat) -> p.Tcp_mesh.peer <> t.me)
             (Tcp_mesh.peer_stats t.mesh))));
  Buffer.contents b

let create loop ~me ~listen_fd ~peers ~payload_codec ?(config = default_config)
    ?(on_deliverable = fun () -> ()) ?data_dir ?state_transfer ?state_digest
    ?(on_synced = fun _ _ -> ()) () =
  let members = List.sort_uniq compare (List.map fst peers) in
  if not (List.mem me members) then invalid_arg "Node.create: me must be a peer";
  let engine = Engine.create ~seed:me () in
  let started_at = Loop.now loop in
  (* Trace events carry wall-clock timestamps in the runtime. *)
  Trace.set_clock config.tracer (fun () -> Loop.now loop);
  (match config.metrics with
  | None -> ()
  | Some reg -> Engine.attach_metrics engine reg);
  let wal, recovered =
    match data_dir with
    | None -> (None, None)
    | Some dir ->
        (* A foreign log is a deployment error the caller must surface
           (a clean refusal, not a stack trace from deep inside). *)
        let w, r = Wal.open_exn ~dir ~me ?metrics:config.metrics () in
        if Trace.enabled config.tracer then
          Trace.emit config.tracer
            (Trace.WalRecovery
               {
                 node = me;
                 records = r.Wal.records;
                 truncated = r.Wal.truncated;
                 skipped = r.Wal.skipped;
                 tainted = r.Wal.tainted;
               });
        Log.info (fun m ->
            m "node %d: wal in %s replayed %d records (%d bytes discarded, %d regions salvaged)%s%s"
              me dir r.Wal.records r.Wal.truncated r.Wal.skipped
              (if r.Wal.tainted then ", TAINTED" else "")
              (if r.Wal.fresh then ", fresh" else ""));
        (Some w, Some r)
  in
  (* A tainted salvage cannot prove the durable lease survived: some
     record past the last intact snapshot was destroyed, so an earlier
     incarnation may have put sequence numbers above the recovered
     ceiling on the wire. Over-provision by a full lease chunk (made
     durable immediately) and rely on the sponsor's floors at SYNC to
     push the counter above anything the group ever saw. *)
  let recovered_next_sn =
    match recovered with
    | Some r when r.Wal.tainted -> r.Wal.next_sn + lease_chunk
    | Some r -> r.Wal.next_sn
    | None -> 0
  in
  (match (wal, recovered) with
  | Some w, Some r when r.Wal.tainted ->
      Log.warn (fun m ->
          m "node %d: wal salvage could not prove the lease suffix intact; leasing %d..%d" me
            r.Wal.next_sn recovered_next_sn);
      Wal.append_durable w (Wal.Lease { next_sn = recovered_next_sn })
  | _ -> ());
  let node_label = [ ("node", string_of_int me) ] in
  let t_ref = ref None in
  let mesh =
    Tcp_mesh.create loop ~me ~listen_fd ~peers
      ~on_frame:(fun ~src frame ->
        match !t_ref with
        | None -> ()
        | Some t -> (
            (* [frame] is a borrowed slice into the mesh's inbound
               buffer; decoding happens entirely within the callback. *)
            match read_packet payload_codec (Codec.Reader.of_slice frame) with
            | packet -> on_packet t ~src packet
            | exception (Codec.Truncated | Codec.Malformed _) ->
                Log.warn (fun m -> m "node %d: malformed frame from %d" me src);
                (* Feed the transport's misbehavior score: repeated
                   garbage escalates to link reset and quarantine. *)
                Tcp_mesh.note_misbehavior t.mesh ~src ~reason:"bad-frame"))
      ~on_hello:(fun ~src ->
        (* A suspected peer dialing us afresh is a restarted
           incarnation: its predecessor did crash, so the suspicion
           was correct and must not inflate the peer's timeout. *)
        match !t_ref with Some t -> Heartbeat.confirm t.hb src | None -> ())
      ~tracer:config.tracer ?metrics:config.metrics ~hostile:config.hostile
      ~backpressure:config.backpressure ~max_frame:config.max_frame
      ~flush_interval:config.flush_interval ()
  in
  let hb_ref = ref None in
  let suspects p =
    match !hb_ref with Some hb -> Heartbeat.suspects hb p | None -> false
  in
  let clock () = Loop.now loop in
  let proto =
    match recovered with
    | Some r when not r.Wal.fresh ->
        (* The previous incarnation's streams died with it, so it
           cannot silently resume membership: it restarts as a joiner
           carrying its durable floors and sequence lease, and re-enters
           through the JOIN/SYNC handshake. *)
        let recovery =
          {
            Protocol.view_id =
              (match r.Wal.view with Some v -> v.View.id | None -> -1);
            floors = r.Wal.floors;
            next_sn = recovered_next_sn;
          }
        in
        let p =
          Protocol.create_joiner ~me ~recovery ~semantic:config.semantic
            ~tracer:config.tracer ?metrics:config.metrics ~clock ~suspects ()
        in
        if r.Wal.tainted then Protocol.mark_lease_uncertain p;
        p
    | _ ->
        let initial_view = View.initial ~members in
        (* Anchor a brand-new log so even a crash before the first view
           change recovers a view. *)
        (match wal with
        | Some w -> Wal.append_durable w (Wal.Install initial_view)
        | None -> ());
        Protocol.create ~me ~initial_view ~semantic:config.semantic ~tracer:config.tracer
          ?metrics:config.metrics ~clock ~suspects ()
  in
  (match state_transfer with
  | Some f -> Protocol.set_state_transfer proto f
  | None -> ());
  let hb =
    Heartbeat.create engine config.heartbeat ~me ~peers:members
      ~send_heartbeat:(fun ~dst ->
        match !t_ref with
        | Some t ->
            send_packet t ~dst
              (Beat { view_id = (view t).View.id; digest = current_digest t })
        | None -> ())
  in
  hb_ref := Some hb;
  let t =
    {
      loop;
      me;
      engine;
      started_at;
      proto;
      wal;
      leased = recovered_next_sn;
      durable_leased = recovered_next_sn;
      pkt_writer = Codec.Writer.create ~initial_capacity:256 ();
      pkt_wire = None;
      on_synced;
      mesh;
      payload_codec;
      hb;
      instances = Hashtbl.create 7;
      cons_stash = Hashtbl.create 7;
      on_deliverable;
      stopped = false;
      tracer = config.tracer;
      semantic = config.semantic;
      metrics = config.metrics;
      state_transfer_fn = state_transfer;
      peers_ids = members;
      park_timeout = config.park_timeout;
      blocked_obs = None;
      park_epoch = None;
      want_rejoin = false;
      peer_digests = Hashtbl.create 7;
      div_streak = 0;
      div_last = None;
      heal_pending = false;
      app_digest = state_digest;
      c_divergence =
        (match config.metrics with
        | None -> Metrics.Counter.detached ()
        | Some reg -> Metrics.counter reg ~labels:node_label "svs_divergence_detected_total");
      suspicions =
        (match config.metrics with
        | None -> Metrics.Counter.detached ()
        | Some reg -> Metrics.counter reg ~labels:node_label "rt_suspicions_total");
      c_slow_reports =
        (match config.metrics with
        | None -> Metrics.Counter.detached ()
        | Some reg -> Metrics.counter reg ~labels:node_label "rt_slow_member_reports_total");
      slow_member = config.slow_member;
      ready_callbacks = [];
      reported_slow = Hashtbl.create 7;
      evicting = Hashtbl.create 7;
      delivery_latency =
        (match config.metrics with
        | None -> Metrics.Histogram.detached ()
        | Some reg -> Metrics.histogram reg ~labels:node_label "rt_delivery_latency_seconds");
      merge_spans =
        (match config.metrics with
        | None -> Metrics.Histogram.detached ()
        | Some reg -> Metrics.histogram reg ~labels:node_label "rt_merge_seconds");
      origins = Int_tbl.create 8;
    }
  in
  t_ref := Some t;
  Heartbeat.on_suspect hb (fun p ->
      Metrics.Counter.incr t.suspicions;
      if Trace.enabled t.tracer then
        Trace.emit t.tracer (Trace.Suspect { node = t.me; suspect = p });
      on_suspicion t);
  Heartbeat.on_rescind hb (fun _ -> on_suspicion t);
  (* Advance the automata's virtual clock to wall time. *)
  ignore
    (Loop.every loop ~period:0.01 (fun () ->
         if not t.stopped then begin
           if t.want_rejoin then begin
             t.want_rejoin <- false;
             rejoin_via_probe t
           end;
           Engine.run ~until:(Loop.now loop -. t.started_at) t.engine;
           drain t
         end;
         not t.stopped)
      : Loop.timer);
  (* Primary-component survival: a member still blocked in the same
     view change when the deadline expires has lost the majority — it
     parks and probes its way back in. *)
  (match config.park_timeout with
  | None -> ()
  | Some deadline ->
      ignore
        (Loop.every loop ~period:(Float.max 0.05 (deadline /. 4.0)) (fun () ->
             if t.stopped then false
             else begin
               (if is_member t && Protocol.blocked t.proto then begin
                  let vid = (view t).View.id in
                  match t.blocked_obs with
                  | Some (v, t0) when v = vid ->
                      if Loop.now loop -. t0 >= deadline then park t
                  | Some _ | None -> t.blocked_obs <- Some (vid, Loop.now loop)
                end
                else t.blocked_obs <- None);
               true
             end)
          : Loop.timer));
  (match config.stability_period with
  | None -> ()
  | Some period ->
      ignore
        (Loop.every loop ~period (fun () ->
             if not t.stopped then begin
               Protocol.gossip_stability t.proto;
               drain t
             end;
             not t.stopped)
          : Loop.timer));
  (* Slow-member escalation and admission-control ready callbacks:
     stage transitions depend only on mesh state the tick reads, so a
     quarter-second cadence is plenty. *)
  ignore
    (Loop.every loop ~period:0.25 (fun () ->
         if not t.stopped then check_slow_members t;
         not t.stopped)
      : Loop.timer);
  (* Divergence self-healing: digests arrive on heartbeats; this timer
     only evaluates them (and drives a pending self-demotion home). *)
  (match config.divergence_period with
  | None -> ()
  | Some period ->
      ignore
        (Loop.every loop ~period (fun () ->
             if not t.stopped then check_divergence t;
             not t.stopped)
          : Loop.timer));
  if Protocol.joining proto then start_join_nag t;
  (match wal with
  | None -> ()
  | Some w ->
      (* Group-commit tick: one fsync covers every append since the
         last — floors and lease extensions ride it for free. *)
      ignore
        (Loop.every loop ~period:0.05 (fun () ->
             wal_sync t w;
             t.durable_leased <- t.leased;
             not t.stopped)
          : Loop.timer));
  t

let stop t ~durable =
  if not t.stopped then begin
    t.stopped <- true;
    Heartbeat.stop t.hb;
    Hashtbl.iter (fun _ inst -> Ct.stop inst) t.instances;
    Tcp_mesh.close t.mesh;
    match t.wal with
    | Some w when durable ->
        append_floors t w;
        Wal.close w
    | Some w -> Wal.abandon w
    | None -> ()
  end

let shutdown t = stop t ~durable:true

let crash t = stop t ~durable:false
