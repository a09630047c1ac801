type variant = Reno | Newreno | Sack

type growth = Aimd | Cubic

type t = {
  variant : variant;
  growth : growth;
  mss : int;
  header_bytes : int;
  ack_bytes : int;
  init_cwnd : float;
  init_ssthresh : float;
  dupack_thresh : int;
  min_rto : float;
  max_rto : float;
  max_backoff : int;
  rcv_wnd : int;
  syn_timeout : float;
  syn_retry_doubling : bool;
  max_syn_retries : int;
  use_syn : bool;
  delayed_ack : float option;
}

let default =
  {
    variant = Newreno;
    growth = Aimd;
    mss = 460;
    header_bytes = 40;
    ack_bytes = 40;
    init_cwnd = 2.0;
    init_ssthresh = 64.0;
    dupack_thresh = 3;
    min_rto = 0.2;
    max_rto = 60.0;
    max_backoff = 64;
    rcv_wnd = 1_000_000;
    syn_timeout = 3.0;
    syn_retry_doubling = true;
    max_syn_retries = 1000;
    use_syn = true;
    delayed_ack = None;
  }

let cubic = { default with growth = Cubic; init_cwnd = 10.0 }

let sack = { default with variant = Sack }

let profiles = [ ("newreno", default); ("sack", sack); ("cubic", cubic) ]

let of_name name = List.assoc_opt (String.lowercase_ascii name) profiles

let profile_names = List.map fst profiles

let make ?(min_rto = default.min_rto) ?(rcv_wnd = default.rcv_wnd)
    ?(syn_retry_doubling = default.syn_retry_doubling)
    ?(use_syn = default.use_syn) () =
  { default with min_rto; rcv_wnd; syn_retry_doubling; use_syn }

let packet_bytes t = t.mss + t.header_bytes
