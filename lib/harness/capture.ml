let text f = fst (Taq_util.Out.with_buffer f)
