type variant = Newreno | Sack

type growth = Aimd | Cubic

type t = {
  variant : variant;
  growth : growth;
  init_cwnd : float;
  min_rto : float;
  rcv_wnd : int;
  syn_retry_doubling : bool;
  use_syn : bool;
}

let mss = 460

let header_bytes = 40

let packet_bytes = mss + header_bytes

let default =
  {
    variant = Newreno;
    growth = Aimd;
    init_cwnd = 2.0;
    min_rto = 0.2;
    rcv_wnd = 1_000_000;
    syn_retry_doubling = true;
    use_syn = true;
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
