(* The epoch estimator as it stood in lib/core before
   [Taq_core.Flow_tracker] folded it into each flow's float record. Kept
   verbatim (bar this header and the [open]) for the reference tracker
   in [Flow_tracker_ref]. *)

open Taq_core

type estimating = {
  min_epoch : float;
  max_epoch : float;
  ewma : Taq_util.Ewma.t;
  default_epoch : float;
  mutable syn_at : float;  (* nan when no SYN observed *)
  mutable burst_start : float;  (* nan before first packet *)
  mutable last_packet : float;
}

type t = Oracle of float | Est of estimating

let create = function
  | Taq_config.Oracle rtt -> Oracle rtt
  | Taq_config.Estimated { default_epoch; min_epoch; max_epoch; alpha } ->
      Est
        {
          min_epoch;
          max_epoch;
          ewma = Taq_util.Ewma.create ~alpha;
          default_epoch;
          syn_at = nan;
          burst_start = nan;
          last_packet = nan;
        }

let clamp e x = Float.min e.max_epoch (Float.max e.min_epoch x)

let note_syn t ~time =
  match t with Oracle _ -> () | Est e -> e.syn_at <- time

let current e =
  if Taq_util.Ewma.is_initialized e.ewma then
    clamp e (Taq_util.Ewma.value e.ewma)
  else e.default_epoch

let note_packet t ~time =
  match t with
  | Oracle _ -> ()
  | Est e ->
      if Float.is_nan e.burst_start then begin
        (* First data packet: the SYN→data gap is the initial epoch. *)
        (if not (Float.is_nan e.syn_at) then begin
           let sample = clamp e (time -. e.syn_at) in
           Taq_util.Ewma.update e.ewma sample
         end);
        e.burst_start <- time;
        e.last_packet <- time
      end
      else begin
        let cur = current e in
        (* A gap of more than half an epoch since the previous packet
           marks the start of a new burst; the spacing between burst
           starts samples the epoch. *)
        if time -. e.last_packet > 0.5 *. cur then begin
          let sample = clamp e (time -. e.burst_start) in
          Taq_util.Ewma.update e.ewma sample;
          e.burst_start <- time
        end;
        e.last_packet <- time
      end

let epoch = function Oracle rtt -> rtt | Est e -> current e
