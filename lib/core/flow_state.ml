type t =
  | Slow_start
  | Normal
  | Loss_recovery
  | Timeout_silence
  | Timeout_recovery
  | Extended_silence
  | Idle

let initial = Slow_start

(* Exponential growth detection for slow start: the epoch's new-packet
   count grew markedly over the previous epoch's. *)
let growing ~new_pkts ~prev_new_pkts =
  prev_new_pkts = 0
  || float_of_int new_pkts >= 1.5 *. float_of_int prev_new_pkts

let step_counts state ~new_pkts ~retx_pkts ~drops ~prev_new_pkts
    ~outstanding_drops =
  let silent_epoch = new_pkts = 0 && retx_pkts = 0 in
  if silent_epoch then begin
    match state with
    | Slow_start | Normal ->
        (* A silent epoch after drops means the sender is waiting out a
           timeout; with no drop on record it simply has nothing to
           send (the dummy state of Figure 7). *)
        if drops > 0 || outstanding_drops > 0 then Timeout_silence
        else Idle
    | Loss_recovery -> Timeout_silence
    | Timeout_silence | Extended_silence -> Extended_silence
    | Timeout_recovery ->
        (* The recovery retransmission must itself have been lost:
           repetitive timeout. *)
        Extended_silence
    | Idle -> if drops > 0 || outstanding_drops > 0 then Timeout_silence else Idle
  end
  else if retx_pkts > 0 then begin
    match state with
    | Timeout_silence | Extended_silence -> Timeout_recovery
    | Timeout_recovery ->
        if outstanding_drops = 0 && new_pkts > 0 then Slow_start
        else Timeout_recovery
    | Slow_start | Normal | Idle -> Loss_recovery
    | Loss_recovery ->
        if outstanding_drops = 0 && new_pkts > 0 then Normal
        else Loss_recovery
  end
  else begin
    (* New data flowing, no retransmissions. *)
    match state with
    | Slow_start -> if drops > 0 then Loss_recovery
        else if growing ~new_pkts ~prev_new_pkts then Slow_start
        else Normal
    | Normal -> if drops > 0 then Loss_recovery else Normal
    | Loss_recovery ->
        (* Recovered to steady progress. *)
        if outstanding_drops = 0 then Normal else Loss_recovery
    | Timeout_recovery ->
        (* Successful timeout recovery re-enters slow start with a
           small window (Figure 7). *)
        Slow_start
    | Timeout_silence | Extended_silence ->
        (* Data resumed without visible retransmissions (the lost
           packet may have been retransmitted on a path we missed, or
           sequence inference missed it): treat as timeout recovery. *)
        Timeout_recovery
    | Idle -> Normal
  end
