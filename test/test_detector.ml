(* Tests for failure detectors (oracle and heartbeat). *)

module Engine = Svs_sim.Engine
module Network = Svs_net.Network
module Latency = Svs_net.Latency
module Oracle = Svs_detector.Oracle
module Heartbeat = Svs_detector.Heartbeat

(* --- Oracle --- *)

let test_oracle_basic () =
  let o = Oracle.create ~nodes:3 in
  Alcotest.(check bool) "initially unsuspected" false (Oracle.suspects o 1);
  Oracle.mark_crashed o 1;
  Alcotest.(check bool) "suspected after crash" true (Oracle.suspects o 1);
  Alcotest.(check (list int)) "suspected set" [ 1 ] (Oracle.suspected_set o)

let test_oracle_callback_once () =
  let o = Oracle.create ~nodes:3 in
  let calls = ref [] in
  Oracle.on_suspect o (fun p -> calls := p :: !calls);
  Oracle.mark_crashed o 2;
  Oracle.mark_crashed o 2;
  Alcotest.(check (list int)) "fired once" [ 2 ] !calls

let test_oracle_out_of_range () =
  let o = Oracle.create ~nodes:2 in
  Alcotest.(check bool) "out of range is not suspected" false (Oracle.suspects o 7)

(* --- Heartbeat --- *)

(* Build a 2-node rig where node 1 monitors node 0 through a network. *)
type rig = {
  engine : Engine.t;
  net : [ `Beat ] Network.t;
  monitor : Heartbeat.t;
}

let make_rig ?(config = Heartbeat.default_config) ?(latency = Latency.Constant 0.001) () =
  let engine = Engine.create ~seed:5 () in
  let net = Network.create engine ~nodes:2 ~latency () in
  let monitor =
    Heartbeat.create engine config ~me:1 ~peers:[ 0; 1 ]
      ~send_heartbeat:(fun ~dst -> Network.send net ~src:1 ~dst `Beat)
  in
  (* Node 0 beats periodically too. *)
  let sender =
    Heartbeat.create engine config ~me:0 ~peers:[ 0; 1 ]
      ~send_heartbeat:(fun ~dst -> Network.send net ~src:0 ~dst `Beat)
  in
  Network.set_handler net ~node:1 (fun ~src `Beat -> Heartbeat.on_heartbeat monitor ~src);
  Network.set_handler net ~node:0 (fun ~src `Beat -> Heartbeat.on_heartbeat sender ~src);
  { engine; net; monitor }

let test_heartbeat_no_false_suspicion_when_quiet () =
  let rig = make_rig () in
  Engine.run ~until:5.0 rig.engine;
  Alcotest.(check bool) "peer alive, never suspected" false (Heartbeat.suspects rig.monitor 0)

let test_heartbeat_detects_crash () =
  let rig = make_rig () in
  Engine.run ~until:2.0 rig.engine;
  Network.crash rig.net ~node:0;
  Engine.run ~until:5.0 rig.engine;
  Alcotest.(check bool) "crashed peer suspected" true (Heartbeat.suspects rig.monitor 0);
  Alcotest.(check (list int)) "suspected set" [ 0 ] (Heartbeat.suspected_set rig.monitor)

let test_heartbeat_suspect_callback () =
  let rig = make_rig () in
  let suspected_at = ref nan in
  Heartbeat.on_suspect rig.monitor (fun p ->
      if p = 0 then suspected_at := Engine.now rig.engine);
  Network.crash rig.net ~node:0;
  Engine.run ~until:5.0 rig.engine;
  Alcotest.(check bool) "callback fired after timeout" true
    (!suspected_at > 0.0 && !suspected_at < 1.0)

let test_heartbeat_rescind_and_adapt () =
  (* A long network outage followed by recovery must rescind the
     suspicion and bump the timeout. *)
  let rig = make_rig () in
  let rescinded = ref false in
  Heartbeat.on_rescind rig.monitor (fun p -> if p = 0 then rescinded := true);
  let before = Heartbeat.timeout_of rig.monitor 0 in
  Engine.run ~until:1.0 rig.engine;
  Network.disconnect rig.net 0 1;
  Engine.run ~until:2.5 rig.engine;
  Alcotest.(check bool) "suspected during outage" true (Heartbeat.suspects rig.monitor 0);
  Network.reconnect rig.net 0 1;
  Engine.run ~until:4.0 rig.engine;
  Alcotest.(check bool) "rescinded after recovery" true !rescinded;
  Alcotest.(check bool) "no longer suspected" false (Heartbeat.suspects rig.monitor 0);
  Alcotest.(check bool) "timeout adapted upward" true
    (Heartbeat.timeout_of rig.monitor 0 > before)

let test_heartbeat_eventual_accuracy_with_slow_links () =
  (* With latency above the initial timeout, the detector may suspect
     falsely at first but must converge: eventually no false suspicion
     (◇P behaviour via timeout adaptation). *)
  let config = { Heartbeat.default_config with initial_timeout = 0.12; period = 0.1 } in
  let rig = make_rig ~config ~latency:(Latency.Constant 0.2) () in
  Engine.run ~until:60.0 rig.engine;
  Alcotest.(check bool) "converged: peer not suspected" false (Heartbeat.suspects rig.monitor 0);
  Alcotest.(check bool) "timeout grew past the latency" true
    (Heartbeat.timeout_of rig.monitor 0 > 0.2)

let test_heartbeat_injected_silence () =
  (* Chaos receive-pause: the monitored peer keeps beating, but the
     monitor's receive side is frozen — beats queue at the network.
     Silence longer than the timeout must be suspected; resuming drains
     the queued beats, rescinds the suspicion, and adapts the timeout
     upward by exactly one increment (one false suspicion). *)
  let rig = make_rig () in
  let before = Heartbeat.timeout_of rig.monitor 0 in
  let suspected = ref false in
  let rescinded = ref false in
  Heartbeat.on_suspect rig.monitor (fun p -> if p = 0 then suspected := true);
  Heartbeat.on_rescind rig.monitor (fun p -> if p = 0 then rescinded := true);
  Engine.run ~until:1.0 rig.engine;
  Network.pause_receive rig.net ~node:1;
  (* Pause well past the initial timeout (0.35s by default). *)
  Engine.run ~until:2.5 rig.engine;
  Alcotest.(check bool) "suspected under injected silence" true
    (!suspected && Heartbeat.suspects rig.monitor 0);
  Network.resume_receive rig.net ~node:1;
  Alcotest.(check bool) "rescinded by drained beats" true !rescinded;
  Alcotest.(check bool) "no longer suspected" false (Heartbeat.suspects rig.monitor 0);
  Alcotest.(check (float 1e-9)) "timeout grew by one increment"
    (before +. Heartbeat.default_config.timeout_increment)
    (Heartbeat.timeout_of rig.monitor 0);
  (* And the group stays quiet afterwards: no further false suspicion. *)
  Engine.run ~until:5.0 rig.engine;
  Alcotest.(check bool) "stable after resume" false (Heartbeat.suspects rig.monitor 0)

let test_heartbeat_timeout_cap () =
  (* A long outage produces a stream of false suspicions as queued
     beats trickle in after the heal; the adaptive timeout must stop
     at [max_timeout] rather than grow without bound. *)
  let config =
    { Heartbeat.default_config with timeout_increment = 0.3; max_timeout = 0.8 }
  in
  let rig = make_rig ~config () in
  Engine.run ~until:1.0 rig.engine;
  for _ = 1 to 5 do
    (* Each spike is longer than any reachable timeout, so each causes
       a false suspicion and one adaptation step. *)
    let t0 = Engine.now rig.engine in
    Network.disconnect rig.net 0 1;
    Engine.run ~until:(t0 +. 2.0) rig.engine;
    Alcotest.(check bool) "suspected during spike" true (Heartbeat.suspects rig.monitor 0);
    Network.reconnect rig.net 0 1;
    Engine.run ~until:(t0 +. 3.0) rig.engine
  done;
  Alcotest.(check bool) "timeout capped" true
    (Heartbeat.timeout_of rig.monitor 0 <= config.Heartbeat.max_timeout +. 1e-9);
  Alcotest.(check (float 1e-9)) "timeout is exactly the cap"
    config.Heartbeat.max_timeout
    (Heartbeat.timeout_of rig.monitor 0)

let test_heartbeat_confirmed_suspicion_keeps_timeout () =
  (* Churn: the peer crashes, restarts, and its new incarnation shows
     itself (confirming the suspicion) before it beats again. Twelve
     cycles leave the timeout where it started; a suspicion nobody
     confirmed — the peer was merely late — still counts as false and
     ratchets. *)
  let rig = make_rig () in
  let before = Heartbeat.timeout_of rig.monitor 0 in
  let outage ~confirm =
    let t0 = Engine.now rig.engine in
    Network.disconnect rig.net 0 1;
    Engine.run ~until:(t0 +. 1.5) rig.engine;
    Alcotest.(check bool) "suspected while gone" true (Heartbeat.suspects rig.monitor 0);
    if confirm then Heartbeat.confirm rig.monitor 0;
    Network.reconnect rig.net 0 1;
    Engine.run ~until:(t0 +. 2.5) rig.engine;
    Alcotest.(check bool) "rescinded on return" false (Heartbeat.suspects rig.monitor 0)
  in
  Engine.run ~until:1.0 rig.engine;
  for _ = 1 to 12 do
    outage ~confirm:true
  done;
  Alcotest.(check (float 1e-9)) "confirmed suspicions keep the timeout" before
    (Heartbeat.timeout_of rig.monitor 0);
  (* A confirmation while the peer is trusted has nothing to confirm:
     it does not carry over to the next suspicion. *)
  Heartbeat.confirm rig.monitor 0;
  outage ~confirm:false;
  Alcotest.(check (float 1e-9)) "a false suspicion still ratchets"
    (before +. Heartbeat.default_config.timeout_increment)
    (Heartbeat.timeout_of rig.monitor 0)

let test_heartbeat_stop () =
  let rig = make_rig () in
  Engine.run ~until:1.0 rig.engine;
  Heartbeat.stop rig.monitor;
  Network.crash rig.net ~node:0;
  Engine.run ~until:5.0 rig.engine;
  Alcotest.(check bool) "stopped monitor never suspects" false
    (Heartbeat.suspects rig.monitor 0)

let () =
  Alcotest.run "svs_detector"
    [
      ( "oracle",
        [
          Alcotest.test_case "basic" `Quick test_oracle_basic;
          Alcotest.test_case "callback fires once" `Quick test_oracle_callback_once;
          Alcotest.test_case "out of range" `Quick test_oracle_out_of_range;
        ] );
      ( "heartbeat",
        [
          Alcotest.test_case "no false suspicion" `Quick test_heartbeat_no_false_suspicion_when_quiet;
          Alcotest.test_case "detects crash" `Quick test_heartbeat_detects_crash;
          Alcotest.test_case "suspect callback" `Quick test_heartbeat_suspect_callback;
          Alcotest.test_case "rescind and adapt" `Quick test_heartbeat_rescind_and_adapt;
          Alcotest.test_case "eventual accuracy" `Quick test_heartbeat_eventual_accuracy_with_slow_links;
          Alcotest.test_case "injected silence" `Quick test_heartbeat_injected_silence;
          Alcotest.test_case "timeout cap" `Quick test_heartbeat_timeout_cap;
          Alcotest.test_case "confirmed suspicion keeps timeout" `Quick
            test_heartbeat_confirmed_suspicion_keeps_timeout;
          Alcotest.test_case "stop" `Quick test_heartbeat_stop;
        ] );
    ]
